package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadPatternsExportTest loads a module whose external test uses a
// name only an in-package export_test.go declares, and a value of the
// package under test made by a second package of the module that
// imports it. go test accepts both: the external test is compiled
// against the package with its in-package test files, and q is
// recompiled against that package, so q.Make returns the very p.T the
// test names.
func TestLoadPatternsExportTest(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":             "module m\n\ngo 1.23\n",
		"p/p.go":             "package p\n\ntype T struct{ n int }\n\nfunc internal() int { return 1 }\n",
		"p/export_test.go":   "package p\n\nvar Internal = internal\n",
		"p/p_test.go":        "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"m/p\"\n\t\"m/q\"\n)\n\nfunc TestT(t *testing.T) {\n\tvar v p.T = q.Make()\n\t_ = v\n\t_ = p.Internal()\n}\n",
		"q/q.go":             "package q\n\nimport \"m/p\"\n\nfunc Make() p.T { return p.T{} }\n",
		"p/internal_test.go": "package p\n\nimport \"testing\"\n\nfunc TestInternal(t *testing.T) { _ = T{n: internal()} }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoader().LoadPatterns(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	want := []string{"m/p", "m/p_test", "m/q"}
	if len(got) != len(want) {
		t.Fatalf("units %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("units %v, want %v", got, want)
		}
	}
}
