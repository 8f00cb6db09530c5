package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// RawGo forbids host concurrency in simulation code. Inside a sim.Env
// exactly one process runs at a time and the scheduler is the only
// thing that decides which; a host goroutine started from internal/ is
// a second thread inside that single-threaded world, invisible to Run
// and Stop and free to interleave with the running process wherever
// the Go scheduler likes. Concurrency in simulation code is env.Go, and
// state bound to an Env needs no lock, so a non-test file under
// internal/ that imports sync or sync/atomic is flagged too, once, at
// its first such import. cmd/, examples/ and _test.go files are
// allowlisted (drivers and tests own real threads); the places
// internal/ really is concurrent — separate Envs side by side, a
// recorder shared across goroutines — carry a //lint:allow rawgo
// directive.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbid go statements and sync imports in non-test files under internal/; simulation concurrency is env.Go",
	Run:  runRawGo,
}

func runRawGo(p *Pass) error {
	if !strings.Contains("/"+p.Path(), "/internal/") {
		return nil
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
				p.Reportf(imp.Pos(), "import of %s inside simulation code; state bound to an Env needs no lock or atomic (or, for state that really is shared across goroutines, say so with //lint:allow rawgo)", path)
				break
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				p.Reportf(gs.Pos(), "go statement starts a host goroutine inside simulation code; spawn a process with env.Go (or, for separate Envs side by side, say so with //lint:allow rawgo)")
			}
			return true
		})
	}
	return nil
}
