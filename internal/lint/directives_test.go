package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseDirPkg builds the minimal Package the suppressor needs: parsed
// files plus their FileSet. No type-checking — directives are pure
// comment syntax.
func parseDirPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
}

func TestDirectiveAdjacency(t *testing.T) {
	s := newSuppressor()
	s.scan(parseDirPkg(t, `package p

//lint:allow wallclock covers the next line
var a = 1

var b = 2 //lint:allow senterr trailing covers its own line

var c = 3

//lint:allow wallclock first of two analyzers covering line 11
var d = 4 //lint:allow senterr second of two analyzers covering line 11
`))
	if len(s.malformed) != 0 {
		t.Fatalf("malformed = %v, want none", s.malformed)
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "wallclock", true},        // directive on the line above
		{3, "wallclock", true},        // directive on the line itself
		{5, "wallclock", false},       // two lines below the directive
		{6, "senterr", true},          // trailing directive
		{6, "wallclock", false},       // right line, wrong analyzer
		{8, "senterr", false},         // unrelated line
		{6, directiveAnalyzer, false}, // directive findings are never suppressible
		{11, "wallclock", true},       // two analyzers cover one line: above...
		{11, "senterr", true},         // ...and trailing
		{11, "mapiter", false},        // but only the named ones
	}
	for _, c := range cases {
		got := s.allows(Finding{File: "d.go", Line: c.line, Analyzer: c.analyzer})
		if got != c.want {
			t.Errorf("allows(d.go:%d %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

func TestDirectiveUsedTracking(t *testing.T) {
	s := newSuppressor()
	s.scan(parseDirPkg(t, `package p

var a = 1 //lint:allow wallclock used below
var b = 2 //lint:allow wallclock never used
`))
	if !s.allows(Finding{File: "d.go", Line: 3, Analyzer: "wallclock"}) {
		t.Fatal("expected line-3 directive to suppress")
	}
	if !s.directives[0].used {
		t.Error("suppressing directive not marked used")
	}
	if s.directives[1].used {
		t.Error("untouched directive marked used")
	}
}

// TestDirectiveOffsets pins the position a stale-directive finding is
// reported at: the comment itself, not the code it trails.
func TestDirectiveOffsets(t *testing.T) {
	src := `package p

var a = 1 //lint:allow wallclock span check
`
	s := newSuppressor()
	s.scan(parseDirPkg(t, src))
	if len(s.directives) != 1 {
		t.Fatalf("directives = %d, want 1", len(s.directives))
	}
	d := s.directives[0]
	if d.file != "d.go" || d.line != 3 || d.col != 11 {
		t.Errorf("directive at %s:%d:%d, want d.go:3:11", d.file, d.line, d.col)
	}
	if d.analyzer != "wallclock" {
		t.Errorf("parsed analyzer = %q", d.analyzer)
	}
}

func TestDirectiveReasonWhitespace(t *testing.T) {
	s := newSuppressor()
	s.scan(parseDirPkg(t, `package p

var a = 1 //lint:allow wallclock    padded   reason
`))
	if len(s.malformed) != 0 || len(s.directives) != 1 {
		t.Fatalf("malformed=%v directives=%d", s.malformed, len(s.directives))
	}
}

func TestDirectiveMalformedShapes(t *testing.T) {
	s := newSuppressor()
	s.scan(parseDirPkg(t, `package p

//lint:allow
var a = 1

//lint:allow wallclock
var b = 2

//lint:deny wallclock reason
var c = 3

//lint:allow notananalyzer with a reason
var d = 4
`))
	if len(s.directives) != 0 {
		t.Fatalf("well-formed directives = %d, want 0", len(s.directives))
	}
	var got []string
	for _, f := range s.malformed {
		if f.Analyzer != directiveAnalyzer {
			t.Errorf("malformed finding analyzer = %q, want %q", f.Analyzer, directiveAnalyzer)
		}
		switch {
		case strings.Contains(f.Message, "malformed"):
			got = append(got, "malformed")
		case strings.Contains(f.Message, "unknown lint directive"):
			got = append(got, "unknown-verb")
		case strings.Contains(f.Message, "unknown analyzer"):
			got = append(got, "unknown-analyzer")
		default:
			got = append(got, "?")
		}
	}
	want := []string{"malformed", "malformed", "unknown-verb", "unknown-analyzer"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("malformed shapes = %v, want %v", got, want)
	}
}
