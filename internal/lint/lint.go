// Package lint is a self-contained static-analysis engine encoding the
// repository's determinism and correctness invariants: simulation code
// may not read the host clock, randomness must be seeded and threaded
// explicitly, sentinel errors must be matched with errors.Is, blocking
// simulation operations may not run under a sync mutex, map iteration
// order may not leak into sim-visible output, no field may mix
// sync/atomic and plain access, and no host goroutine may be started
// from simulation code.
//
// The engine is built only on the standard library (go/parser, go/ast,
// go/types, driven by `go list -json`), exposes a go/analysis-shaped
// Analyzer API with a whole-program hook, and honors
// `//lint:allow <analyzer> <reason>` suppression directives (stale ones
// are themselves findings). The cmd/ofc-lint driver prints findings as
// `file:line: [analyzer] message` and exits non-zero when any
// unsuppressed finding remains — it is part of `make check`, so every
// number the experiment harness reports sits on a machine-checked
// determinism floor.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, shaped after golang.org/x/tools'
// go/analysis so the checks could migrate there if the repo ever takes
// the dependency.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// `//lint:allow <name> <reason>` directives.
	Name string
	// Doc is the one-paragraph invariant description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// Optional: a whole-program analyzer has only RunProgram.
	Run func(*Pass) error
	// RunProgram, optional, runs once after every package's Run and
	// reports findings that need the whole program at once.
	RunProgram func(*ProgramPass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Finding)
}

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path() }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Finding is one diagnostic, suppressed or not.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
	// Suppressed is set when a `//lint:allow` directive covers the
	// finding.
	Suppressed bool
}

// String renders the driver's one-line format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// All returns the repository's analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock, SeededRand, SentErr, LockedRPC, MapIter,
		AtomicMix, RawGo, UnusedAllow,
	}
}

// ByName resolves a comma-separated analyzer list against All,
// erroring on unknown names.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ProgramPass carries every loaded package through one analyzer's
// RunProgram hook.
type ProgramPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	report func(Finding)
}

// pass returns a per-package pass over pkg that reports through pp.
func (pp *ProgramPass) pass(pkg *Package) *Pass {
	return &Pass{Analyzer: pp.Analyzer, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, report: pp.report}
}

// Run applies each analyzer to each package, then the whole-program
// hooks over all of them, resolves suppression directives, flags stale
// ones, and returns all findings (suppressed ones marked) sorted by
// (file, line, col, analyzer), which makes the output independent of
// the order packages were analyzed in. Malformed directives are
// themselves findings.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	report := func(f Finding) { findings = append(findings, f) }
	sup := newSuppressor()
	for _, pkg := range pkgs {
		sup.scan(pkg)
	}
	for _, a := range analyzers {
		pp := &ProgramPass{Analyzer: a, Pkgs: pkgs, report: report}
		if a.Run != nil {
			for _, pkg := range pkgs {
				if err := a.Run(pp.pass(pkg)); err != nil {
					return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
		if a.RunProgram != nil {
			if err := a.RunProgram(pp); err != nil {
				return nil, fmt.Errorf("lint: %s program pass: %w", a.Name, err)
			}
		}
	}
	findings = append(findings, sup.malformed...)
	for i := range findings {
		if sup.allows(findings[i]) {
			findings[i].Suppressed = true
		}
	}
	findings = append(findings, staleAllows(sup, analyzers)...)
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by (file, line, col, analyzer) — the
// determinism contract the self-run test asserts.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// FindingsSorted reports whether findings are in the driver's
// deterministic order.
func FindingsSorted(findings []Finding) bool {
	return sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// Unsuppressed filters findings down to the ones that gate the build.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// typeName returns the qualified name of an expression's named type
// after stripping pointers, or "".
func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
