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
	"sort"
	"strings"
)

// Package is one type-checked compilation unit under analysis. A Go
// package with in-package test files is loaded as one unit (GoFiles +
// TestGoFiles, mirroring how the test binary compiles); external
// _test packages form a second unit.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with one shared FileSet and
// one shared source importer, so stdlib dependencies are checked once
// across the whole run. The source importer resolves module-local
// import paths through the go command, keeping go.mod dependency-free.
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

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// LoadPatterns enumerates packages via `go list -json` run in dir and
// returns each as one or two type-checked units.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles,TestGoFiles,XTestGoFiles,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	var pkgs []*Package
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		units := []struct {
			path  string
			files []string
		}{
			{p.ImportPath, append(append([]string{}, p.GoFiles...), p.TestGoFiles...)},
			{p.ImportPath + "_test", p.XTestGoFiles},
		}
		for _, u := range units {
			if len(u.files) == 0 {
				continue
			}
			abs := make([]string, len(u.files))
			for i, f := range u.files {
				abs[i] = filepath.Join(p.Dir, f)
			}
			pkg, err := l.check(u.path, p.Dir, abs)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
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
	pkg, err := l.check(path, dir, names)
	if err != nil {
		return nil, err
	}
	l.overrides[path] = pkg.Types
	return pkg, nil
}

// check parses and type-checks one unit.
func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
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
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
