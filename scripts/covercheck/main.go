// Command covercheck turns a `go test -coverprofile` profile into a
// per-package statement-coverage report and enforces a floor on each
// package named by a -floor flag. The other packages' numbers are
// report-only (growing code should not fail CI for packages that
// predate a floor); a floored package fails the run when it slips, and
// every slipped floor is reported. A floor covers its package alone,
// not its subpackages: a profile counts a package's statements only
// under its own tests, so helper packages that other packages' tests
// exercise (internal/store/conformance) read 0 %.
//
// Usage:
//
//	go run ./scripts/covercheck -profile cover.out -floor ofc/internal/trace=70 -floor ofc/internal/sim=92
//
// It exits 1 when a package is below its floor and 2 when the profile
// cannot be read or a floored package has no statements in it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// pkgCov accumulates statement counts for one package directory.
type pkgCov struct {
	stmts int64
	hit   int64
}

func (c pkgCov) percent() float64 {
	if c.stmts == 0 {
		return 0
	}
	return 100 * float64(c.hit) / float64(c.stmts)
}

func main() {
	profile := flag.String("profile", "cover.out", "coverage profile written by go test -coverprofile")
	floors := make(map[string]float64)
	var order []string
	flag.Func("floor", "`pkg=percent`: minimum statement coverage of one package's import path (repeatable)", func(v string) error {
		pkg, pct, ok := strings.Cut(v, "=")
		if !ok || pkg == "" {
			return fmt.Errorf("want pkg=percent, got %q", v)
		}
		p, err := strconv.ParseFloat(pct, 64)
		if err != nil {
			return err
		}
		if _, dup := floors[pkg]; !dup {
			order = append(order, pkg)
		}
		floors[pkg] = p
		return nil
	})
	flag.Parse()

	pkgs, err := parseProfile(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covercheck: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "covercheck: profile is empty")
		os.Exit(2)
	}

	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var total pkgCov
	for _, name := range names {
		c := pkgs[name]
		total.stmts += c.stmts
		total.hit += c.hit
		mark := " "
		if _, ok := floors[name]; ok {
			mark = "*"
		}
		fmt.Printf("%s %-44s %6.1f%%  (%d/%d stmts)\n", mark, name, c.percent(), c.hit, c.stmts)
	}
	fmt.Printf("  %-44s %6.1f%%  (%d/%d stmts)\n", "TOTAL", total.percent(), total.hit, total.stmts)

	status := 0
	for _, pkg := range order {
		c, floor := pkgs[pkg], floors[pkg]
		switch got := c.percent(); {
		case c.stmts == 0:
			fmt.Fprintf(os.Stderr, "covercheck: no statements matched %s\n", pkg)
			status = 2
		case got < floor:
			fmt.Fprintf(os.Stderr, "covercheck: %s coverage %.1f%% is below the %.1f%% floor\n", pkg, got, floor)
			status = max(status, 1)
		default:
			fmt.Printf("floor ok: %s at %.1f%% (floor %.1f%%)\n", pkg, got, floor)
		}
	}
	os.Exit(status)
}

// parseProfile reads the cover profile, summing statement and hit
// counts per package directory. Profile lines look like
//
//	ofc/internal/trace/trace.go:88.36,90.3 1 5
//
// i.e. file:location numStmts hitCount, after a leading "mode:" line.
func parseProfile(path string) (map[string]pkgCov, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Blocks can repeat when several test binaries touch the same file;
	// dedupe on the block location, keeping the max hit count, before
	// aggregating per package.
	type block struct {
		stmts int64
		hits  int64
	}
	blocks := make(map[string]block)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("malformed profile line %q", line)
		}
		stmts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad statement count in %q: %v", line, err)
		}
		hits, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad hit count in %q: %v", line, err)
		}
		b := blocks[fields[0]]
		b.stmts = stmts
		if hits > b.hits {
			b.hits = hits
		}
		blocks[fields[0]] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	pkgs := make(map[string]pkgCov)
	for loc, b := range blocks {
		file, _, ok := strings.Cut(loc, ":")
		if !ok {
			return nil, fmt.Errorf("malformed location %q", loc)
		}
		dir := file
		if i := strings.LastIndexByte(file, '/'); i >= 0 {
			dir = file[:i]
		}
		c := pkgs[dir]
		c.stmts += b.stmts
		if b.hits > 0 {
			c.hit += b.stmts
		}
		pkgs[dir] = c
	}
	return pkgs, nil
}
