// Command ofc-lint runs the repository's determinism & correctness
// analysis suite (internal/lint) over Go packages and prints findings
// as `file:line: [analyzer] message`.
//
// Usage:
//
//	ofc-lint [flags] [packages]
//
//	ofc-lint ./...                    # whole repo (the make lint gate)
//	ofc-lint -run wallclock ./internal/...
//	ofc-lint -list
//	ofc-lint -suppressed ./...        # also show //lint:allow'ed findings
//
// Exit status: 0 when clean, 1 on unsuppressed findings, 2 on load or
// usage errors. Findings are suppressed with a trailing or preceding
// `//lint:allow <analyzer> <reason>` comment; the reason is mandatory
// and stale directives are themselves flagged.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ofc/internal/lint"
)

func main() {
	var (
		run        = flag.String("run", "", "comma-separated analyzer names (default: all)")
		list       = flag.Bool("list", false, "list analyzers and exit")
		suppressed = flag.Bool("suppressed", false, "also print suppressed findings")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := lint.NewLoader().LoadPatterns(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	shown := findings[:0]
	for _, f := range findings {
		if f.Suppressed && !*suppressed {
			continue
		}
		if rel, err := filepath.Rel(cwd, f.File); err == nil && !filepath.IsAbs(rel) {
			f.File = rel
		}
		shown = append(shown, f)
	}

	bad := 0
	for _, f := range shown {
		tag := ""
		if f.Suppressed {
			tag = " (suppressed)"
		} else {
			bad++
		}
		fmt.Printf("%s%s\n", f, tag)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "ofc-lint: %d finding(s)\n", bad)
		os.Exit(1)
	}
}
