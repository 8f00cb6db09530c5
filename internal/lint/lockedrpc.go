package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockedRPC forbids blocking simulation operations — simnet
// TryCall/Transfer, disk I/O, sim.Env.Sleep, Future/WaitGroup waits
// — while a sync.Mutex or sync.RWMutex is held. A sim process that
// parks inside the scheduler while holding a Go mutex stalls every
// other process that touches the same lock without the scheduler
// noticing: with the clock only advancing when all processes block,
// that is the classic self-deadlock shape the data plane's locks
// invite. The analysis is an intra-procedural
// over-approximation: it tracks a lock/unlock depth counter through
// straight-line code and branches, treats deferred unlocks as holding
// to function end, and analyzes function literals independently (their
// bodies run on other processes).
var LockedRPC = &Analyzer{
	Name: "lockedrpc",
	Doc:  "forbid blocking simnet/sim.Env operations while holding a sync.Mutex/RWMutex",
	Run:  runLockedRPC,
}

// lockedBlocking maps package-path suffix -> function/method names that
// park the calling process in the sim scheduler.
var lockedBlocking = map[string]map[string]bool{
	"internal/sim": {
		"Sleep":       true, // Env
		"Run":         true, // Env
		"Wait":        true, // Future, WaitGroup
		"WaitTimeout": true, // Future
	},
	"internal/simnet": {
		"TryCall":     true,
		"Transfer":    true, // Network
		"TryTransfer": true, // Network
		"DiskRead":    true, // Node
		"DiskWrite":   true, // Node
	},
}

func runLockedRPC(p *Pass) error {
	w := &lockedWalker{pass: p}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					w.walkBody(d.Body)
				}
			case *ast.GenDecl:
				// Package-level var initializers can hold func literals.
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						w.walkBody(lit.Body)
						return false
					}
					return true
				})
			}
		}
	}
	return nil
}

type lockedWalker struct {
	pass *Pass
}

// walkBody analyzes one function body starting unlocked.
func (w *lockedWalker) walkBody(body *ast.BlockStmt) {
	w.walkStmts(body.List, 0)
}

// walkStmts walks a statement list with the current lock depth and
// returns the depth after the list.
func (w *lockedWalker) walkStmts(stmts []ast.Stmt, locked int) int {
	for _, s := range stmts {
		locked = w.walkStmt(s, locked)
	}
	return locked
}

func (w *lockedWalker) walkStmt(s ast.Stmt, locked int) int {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch w.lockOp(call) {
			case lockAcquire:
				return locked + 1
			case lockRelease:
				if locked > 0 {
					return locked - 1
				}
				return 0
			}
		}
		w.checkExpr(s.X, locked)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the rest of the
		// body; a deferred blocking call runs with whatever is held at
		// return, approximated by the current depth.
		if w.lockOp(s.Call) == lockNone {
			w.checkExpr(s.Call, locked)
		}
	case *ast.GoStmt:
		// The spawned body runs as its own process, unlocked; the go
		// statement itself does not block.
		w.checkExpr(s.Call.Fun, 0)
		for _, a := range s.Call.Args {
			w.checkExpr(a, 0)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, locked)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, locked)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, locked)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, locked)
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			locked = w.walkStmt(s.Init, locked)
		}
		w.checkExpr(s.Cond, locked)
		thenOut := w.walkStmts(s.Body.List, locked)
		elseOut := locked
		if s.Else != nil {
			elseOut = w.walkStmt(s.Else, locked)
		}
		// Join: a branch that jumps away (return/break/continue/panic)
		// does not constrain fall-through state.
		thenJumps := endsInJump(s.Body.List)
		elseJumps := false
		if eb, ok := s.Else.(*ast.BlockStmt); ok {
			elseJumps = endsInJump(eb.List)
		}
		switch {
		case thenJumps && elseJumps:
			return locked
		case thenJumps:
			return elseOut
		case elseJumps:
			return thenOut
		default:
			return minInt(thenOut, elseOut)
		}
	case *ast.BlockStmt:
		return w.walkStmts(s.List, locked)
	case *ast.ForStmt:
		if s.Init != nil {
			locked = w.walkStmt(s.Init, locked)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, locked)
		}
		out := w.walkStmts(s.Body.List, locked)
		if s.Post != nil {
			out = w.walkStmt(s.Post, out)
		}
		return minInt(locked, out)
	case *ast.RangeStmt:
		w.checkExpr(s.X, locked)
		out := w.walkStmts(s.Body.List, locked)
		return minInt(locked, out)
	case *ast.SwitchStmt:
		if s.Init != nil {
			locked = w.walkStmt(s.Init, locked)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, locked)
		}
		out := locked
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				cout := w.walkStmts(cc.Body, locked)
				if !endsInJump(cc.Body) {
					out = minInt(out, cout)
				}
			}
		}
		return out
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, locked)
			}
		}
		return locked
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, locked)
			}
		}
		return locked
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, locked)
	case *ast.IncDecStmt:
		w.checkExpr(s.X, locked)
	case *ast.SendStmt:
		w.checkExpr(s.Chan, locked)
		w.checkExpr(s.Value, locked)
	}
	return locked
}

// checkExpr scans an expression for blocking calls executed at the
// current lock depth. Function literals are analyzed independently:
// their bodies execute later, on their own process, starting unlocked.
func (w *lockedWalker) checkExpr(e ast.Expr, locked int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkBody(n.Body)
			return false
		case *ast.CallExpr:
			if locked > 0 {
				if name, pkg := w.blockingCall(n); name != "" {
					w.pass.Reportf(n.Pos(), "%s.%s blocks in the sim scheduler while a sync mutex is held; release the lock before any blocking sim operation", pkg, name)
				}
			}
		}
		return true
	})
}

type lockOpKind int

const (
	lockNone lockOpKind = iota
	lockAcquire
	lockRelease
)

// lockOp classifies a call as a sync.Mutex/RWMutex acquire or release.
func (w *lockedWalker) lockOp(call *ast.CallExpr) lockOpKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockNone
	}
	fn, ok := w.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return lockNone
}

// blockingCall reports the (name, short package) of a blocking sim
// operation, or "".
func (w *lockedWalker) blockingCall(call *ast.CallExpr) (name, pkg string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	case *ast.IndexExpr: // generic instantiation: simnet.TryCall[T](...)
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if ident, ok := fun.X.(*ast.Ident); ok {
			id = ident
		}
	}
	if id == nil {
		return "", ""
	}
	fn, ok := w.pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	for suffix, names := range lockedBlocking {
		if strings.HasSuffix(fn.Pkg().Path(), suffix) && names[fn.Name()] {
			short := suffix[strings.LastIndex(suffix, "/")+1:]
			return fn.Name(), short
		}
	}
	return "", ""
}

func endsInJump(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
