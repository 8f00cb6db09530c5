package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one type-checked compilation unit under analysis. A Go
// package with in-package test files is loaded as one unit (GoFiles +
// TestGoFiles, mirroring how the test binary compiles); external
// _test packages form a second unit, checked against the first.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with one shared FileSet and
// one shared source importer, so stdlib dependencies are checked once
// across the whole run, keeping go.mod dependency-free; LoadPatterns
// resolves the module's own packages from the go command's listing.
// Packages loaded explicitly with LoadDirAs are additionally recorded
// as import overrides, so multi-package testdata trees (a package
// plus a dependent that imports it under a fake path) type-check
// without existing on the build list.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer

	// overrides maps import paths of LoadDirAs-loaded packages; the
	// chained importer consults it before the source importer, and
	// LoadPatterns never populates it, so production runs resolve
	// imports exactly as the go command does.
	overrides map[string]*types.Package
}

// NewLoader returns a fresh loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	l := &Loader{Fset: fset, overrides: map[string]*types.Package{}}
	l.imp = &chainImporter{l: l, src: importer.ForCompiler(fset, "source", nil)}
	return l
}

// chainImporter resolves LoadDirAs overrides first, then falls back to
// the source importer.
type chainImporter struct {
	l   *Loader
	src types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.l.overrides[path]; ok {
		return pkg, nil
	}
	return c.src.Import(path)
}

// listedPkg is the subset of `go list -test -deps -json` output the
// loader needs. With -test, the go command lists each compilation unit
// of a test binary as its own entry: "p [p.test]" is p with its
// in-package test files, "p_test [p.test]" the external test package,
// and "q [p.test]" a dependency q recompiled because it imports p.
// ForTest names p on each; ImportMap maps an import path as written to
// the unit the binary links for it.
type listedPkg struct {
	Dir        string
	ImportPath string
	ForTest    string
	DepOnly    bool
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// LoadPatterns enumerates packages via `go list -test -deps -json` run
// in dir and returns each as one or two type-checked units.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-test", "-deps",
		"-json=Dir,ImportPath,ForTest,DepOnly,Standard,GoFiles,ImportMap,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	listed := map[string]*listedPkg{}
	var roots []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		listed[p.ImportPath] = p
		if p.ForTest == "" && !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}
	// The generated main of p's test binary is listed as "p.test", after p.
	roots = slices.DeleteFunc(roots, func(p *listedPkg) bool {
		main, ok := strings.CutSuffix(p.ImportPath, ".test")
		return ok && listed[main] != nil
	})
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	imp := &listImporter{l: l, listed: listed, checked: map[string]*types.Package{}}
	var pkgs []*Package
	for _, p := range roots {
		unit := p
		if v := listed[p.ImportPath+" ["+p.ImportPath+".test]"]; v != nil {
			unit = v // p with its in-package test files
		}
		if len(unit.GoFiles) > 0 {
			pkg, err := l.check(p.ImportPath, inDir(unit.Dir, unit.GoFiles), imp.with(unit.ImportMap))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
			imp.checked[unit.ImportPath] = pkg.Types
		}
		if xtest := listed[p.ImportPath+"_test ["+p.ImportPath+".test]"]; xtest != nil {
			pkg, err := l.check(p.ImportPath+"_test", inDir(xtest.Dir, xtest.GoFiles), imp.with(xtest.ImportMap))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// listImporter resolves imports as the go command links them for the
// unit being checked: through the unit's ImportMap, so that an
// external test and any dependency recompiled for its binary see the
// package under test with its in-package test files, and from the
// listed files of every package of the module, so that dir's module
// resolves whatever the process's own directory is. The standard
// library goes to the loader's importer. Each listed unit is checked
// once per LoadPatterns call.
type listImporter struct {
	l         *Loader
	listed    map[string]*listedPkg
	checked   map[string]*types.Package // by listed ImportPath
	importMap map[string]string
}

// with returns the importer for a unit whose ImportMap is m.
func (li *listImporter) with(m map[string]string) *listImporter {
	c := *li
	c.importMap = m
	return &c
}

func (li *listImporter) Import(path string) (*types.Package, error) {
	id := path
	if to, ok := li.importMap[path]; ok {
		id = to
	}
	if pkg := li.checked[id]; pkg != nil {
		return pkg, nil
	}
	p := li.listed[id]
	if p == nil || p.Standard {
		return li.l.imp.Import(path)
	}
	pkg, err := li.l.check(path, inDir(p.Dir, p.GoFiles), li.with(p.ImportMap))
	if err != nil {
		return nil, err
	}
	li.checked[id] = pkg.Types
	return pkg.Types, nil
}

// inDir joins each of files onto dir.
func inDir(dir string, files []string) []string {
	abs := make([]string, len(files))
	for i, f := range files {
		abs[i] = filepath.Join(dir, f)
	}
	return abs
}

// LoadDirAs parses and type-checks every .go file in dir as a package
// with the given import path. The golden-file tests use it to check
// testdata packages (which `go list ./...` deliberately skips) under
// analyzer-relevant paths such as "ofc/internal/x".
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(names)
	pkg, err := l.check(path, names, l.imp)
	if err != nil {
		return nil, err
	}
	l.overrides[path] = pkg.Types
	return pkg, nil
}

// check parses and type-checks one unit, resolving its imports with imp.
func (l *Loader) check(path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
