package lint

import (
	"fmt"
	"regexp"
	"testing"
)

// The golden harness: an analyzer set runs over one or more testdata
// packages and its findings are matched against `// want "regexp"`
// comments placed on the offending lines. Every unsuppressed finding
// must be wanted, every want must be found, and suppressed findings
// (the `//lint:allow` cases) are counted explicitly so a silent
// analyzer can't masquerade as a working suppression. Multi-package
// golden trees (the cross-package case) list the dependency first:
// LoadDirAs registers each package as an import override for the ones
// after it.

// goldenLoader is shared so the stdlib and ofc/internal dependencies
// of the testdata packages are type-checked once per test binary.
var goldenLoader = NewLoader()

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// goldenPkg names one testdata directory and the import path to check
// it under.
type goldenPkg struct {
	dir, path string
}

func runGolden(t *testing.T, analyzers []*Analyzer, gps []goldenPkg, wantSuppressed int) {
	t.Helper()
	var pkgs []*Package
	for _, gp := range gps {
		pkg, err := goldenLoader.LoadDirAs(gp.dir, gp.path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if !FindingsSorted(findings) {
		t.Errorf("findings not in deterministic (file, line, col, analyzer) order: %v", findings)
	}

	// Collect wants from the comments of every file in every package.
	wants := map[string][]*want{} // file -> wants
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[pos.Filename] = append(wants[pos.Filename], &want{line: pos.Line, re: re})
				}
			}
		}
	}

	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			continue
		}
		ok := false
		for _, w := range wants[f.File] {
			if w.line == f.Line && !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected finding matching %q, got none", file, w.line, w.re)
			}
		}
	}
	if suppressed != wantSuppressed {
		t.Errorf("suppressed findings = %d, want %d", suppressed, wantSuppressed)
	}
}

func TestWallclockGolden(t *testing.T) {
	// The package path places the testdata under internal/, where the
	// invariant applies; clean_test.go inside exercises the _test.go
	// allowlist and allow.go the suppression directive.
	runGolden(t, []*Analyzer{Wallclock}, []goldenPkg{{"testdata/wallclock/sim", "ofc/internal/simfake"}}, 1)
}

func TestWallclockAllowsCommands(t *testing.T) {
	// The same calls under a cmd/ path produce no findings at all.
	runGolden(t, []*Analyzer{Wallclock}, []goldenPkg{{"testdata/wallclock/cmdok", "ofc/cmd/fakecmd"}}, 0)
}

func TestSeededRandGolden(t *testing.T) {
	runGolden(t, []*Analyzer{SeededRand}, []goldenPkg{{"testdata/seededrand/a", "ofc/internal/randfake"}}, 1)
}

func TestSentErrGolden(t *testing.T) {
	runGolden(t, []*Analyzer{SentErr}, []goldenPkg{{"testdata/senterr/a", "ofc/internal/errfake"}}, 1)
}

func TestLockedRPCGolden(t *testing.T) {
	runGolden(t, []*Analyzer{LockedRPC}, []goldenPkg{{"testdata/lockedrpc/a", "ofc/internal/lockfake"}}, 1)
}

func TestMapIterGolden(t *testing.T) {
	runGolden(t, []*Analyzer{MapIter}, []goldenPkg{{"testdata/mapiter/a", "ofc/internal/mapfake"}}, 2)
}

func TestAtomicMixGolden(t *testing.T) {
	// a performs only sanctioned atomic accesses; b's plain accesses
	// are caught against a's atomic ones.
	runGolden(t, []*Analyzer{AtomicMix}, []goldenPkg{
		{"testdata/atomicmix/a", "ofc/amfake/a"},
		{"testdata/atomicmix/b", "ofc/amfake/b"},
	}, 1)
}

func TestRawGoGolden(t *testing.T) {
	// pos.go is flagged, allow.go suppressed, clean_test.go exempt.
	runGolden(t, []*Analyzer{RawGo}, []goldenPkg{{"testdata/rawgo/a", "ofc/internal/gofake"}}, 1)
}

func TestRawGoAllowsCommands(t *testing.T) {
	// A go statement under a cmd/ path produces no finding.
	runGolden(t, []*Analyzer{RawGo}, []goldenPkg{{"testdata/rawgo/cmdok", "ofc/cmd/gofake"}}, 0)
}

func TestUnusedAllowGolden(t *testing.T) {
	// Staleness is judged against the full suite: a directive is only
	// stale when its named analyzer ran and found nothing.
	runGolden(t, All(), []goldenPkg{{"testdata/unusedallow/a", "ofc/internal/uafake"}}, 2)
}

// TestDirectiveDiagnostics checks that broken //lint: comments are
// themselves findings: the gate cannot be silenced by a typo'd or
// reasonless suppression.
func TestDirectiveDiagnostics(t *testing.T) {
	pkg, err := goldenLoader.LoadDirAs("testdata/directive/a", "ofc/dirfake")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]*Package{pkg}, All())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range Unsuppressed(findings) {
		if f.Analyzer != directiveAnalyzer {
			t.Errorf("non-directive finding in directive testdata: %s", f)
			continue
		}
		got = append(got, fmt.Sprintf("%d:%s", f.Line, firstWords(f.Message, 2)))
	}
	wantFindings := []string{"5:unknown lint", "12:malformed //lint:allow:", "15://lint:allow names"}
	if len(got) != len(wantFindings) {
		t.Fatalf("directive findings %v, want %v", got, wantFindings)
	}
	for i := range got {
		if got[i] != wantFindings[i] {
			t.Errorf("finding %d = %q, want %q", i, got[i], wantFindings[i])
		}
	}
}

func firstWords(s string, n int) string {
	out := ""
	for i, r := range s {
		if r == ' ' {
			n--
			if n == 0 {
				return out
			}
		}
		out = s[:i+1]
	}
	return out
}

// TestByName covers the driver's -run flag resolution.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("wallclock, senterr")
	if err != nil || len(two) != 2 || two[0].Name != "wallclock" || two[1].Name != "senterr" {
		t.Fatalf("ByName pair = %v, err %v", two, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}
