package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter flags map iterations whose order can leak into sim-visible
// output. Go randomizes map iteration order per run, so a `for range m`
// that prints, appends to an output slice, sends on a channel, or
// spawns simulation work makes the result depend on that randomization
// — the one nondeterminism source the virtual clock cannot absorb.
// Order-insensitive bodies (counter sums, keyed writes into another
// map, deletes) stay legal, as does the canonical collect-then-sort
// idiom: an append whose destination is passed to sort.* / slices.*
// later in the same function is recognized as deterministic. Two
// shapes hide the order instead of showing it, and are flagged as
// well: handing each entry to a function the caller passed in (the
// callee, unseen here, is the sink), and keeping a running best — the
// entry whose score is lowest or highest — with no tie-break, which
// returns whichever of several equal candidates the range met first.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "forbid map iterations whose order reaches sim-visible output; collect keys and sort, or keep the body order-insensitive",
	Run:  runMapIter,
}

// mapIterFmtSinks are the fmt functions that emit directly to a stream;
// Sprint* build values and are only order-sensitive through some other
// sink, which is flagged at that sink instead.
var mapIterFmtSinks = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapIter(p *Pass) error {
	if !strings.Contains("/"+p.Path(), "/internal/") {
		return nil
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(p, fn, rs)
				return true
			})
		}
	}
	return nil
}

// checkMapRange looks for order-sensitive effects inside one map
// iteration and reports each sink at its own position.
func checkMapRange(p *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			reportUntiedSelection(p, rs, n)
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send inside map iteration delivers values in randomized order; collect into a slice, sort, then send")
		case *ast.AssignStmt:
			// x = append(x, ...) growing a slice that outlives the loop
			// freezes the randomized order — unless the slice is sorted
			// afterwards in the same function.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				dst, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Uses[dst]
				if obj == nil {
					obj = p.Info.Defs[dst]
				}
				if obj == nil || insideRange(obj.Pos(), rs) {
					continue // loop-local scratch dies with the iteration
				}
				if sortedAfter(p, fn.Body, obj, rs.End()) {
					continue // collect-then-sort: order is re-established
				}
				p.Reportf(n.Pos(), "appending to %q inside map iteration captures randomized order; sort %q after the loop (or range over sorted keys)", dst.Name, dst.Name)
			}
		case *ast.CallExpr:
			reportCallSink(p, n)
			if id, ok := n.Fun.(*ast.Ident); ok && isFuncParam(p, fn, id) {
				p.Reportf(n.Pos(), "calling parameter %q inside map iteration hands the entries to the caller's function in randomized order; range over sorted keys, or allow it with the reason every caller is order-insensitive", id.Name)
			}
		}
		return true
	})
}

// isFuncParam reports whether id names a function-typed parameter of
// fn.
func isFuncParam(p *Pass, fn *ast.FuncDecl, id *ast.Ident) bool {
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || fn.Type.Params == nil {
		return false
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return false
	}
	return v.Pos() >= fn.Type.Params.Pos() && v.Pos() <= fn.Type.Params.End()
}

// reportUntiedSelection flags the running-best shape: an if whose
// condition orders two values (<, >, <=, >=) and whose body stores
// something of this iteration in a variable that outlives the loop.
// When several entries share the best score the survivor is the one
// the randomized order reached first (or last, for <= and >=). Two
// forms are order-insensitive and stay legal: storing the very value
// that was compared (`if v < min { min = v }` — equal scores are equal
// values), and a condition that also tests equality, which is how a
// tie-break on a second, unique key is written.
func reportUntiedSelection(p *Pass, rs *ast.RangeStmt, ifs *ast.IfStmt) {
	var ordered []*ast.BinaryExpr
	tied := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			ordered = append(ordered, be)
		case token.EQL:
			if !isNilIdent(be.X) && !isNilIdent(be.Y) {
				tied = true
			}
		}
		return true
	})
	if len(ordered) == 0 || tied {
		return
	}
	for _, st := range ifs.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			continue
		}
		for i, lhs := range as.Lhs {
			dst, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Uses[dst]
			if obj == nil || insideRange(obj.Pos(), rs) || !mentionsLoopLocal(p, rs, as.Rhs[i]) {
				continue
			}
			if comparesStored(ordered, dst.Name, types.ExprString(as.Rhs[i])) {
				continue
			}
			p.Reportf(as.Pos(), "%q keeps the best entry of a map iteration with no tie-break: among equal candidates the randomized order decides; compare a unique key as well (or range over sorted keys)", dst.Name)
		}
	}
}

// isNilIdent reports whether e is the identifier nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// mentionsLoopLocal reports whether e reads a variable declared inside
// the range statement: its key, its value, or something derived from
// them in the body.
func mentionsLoopLocal(p *Pass, rs *ast.RangeStmt, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, isVar := p.Info.Uses[id].(*types.Var); isVar && insideRange(obj.Pos(), rs) {
				found = true
			}
		}
		return !found
	})
	return found
}

// comparesStored reports whether one of the ordered comparisons is
// between the stored expression and the variable it is stored in.
func comparesStored(ordered []*ast.BinaryExpr, dst, stored string) bool {
	for _, be := range ordered {
		x, y := types.ExprString(be.X), types.ExprString(be.Y)
		if (x == stored && y == dst) || (x == dst && y == stored) {
			return true
		}
	}
	return false
}

// reportCallSink flags calls that emit or schedule in iteration order:
// direct fmt printing, buffer/builder writes, and sim.Env spawns
// (goroutine creation order perturbs the virtual-clock schedule).
func reportCallSink(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "fmt" && mapIterFmtSinks[name]:
		p.Reportf(call.Pos(), "fmt.%s inside map iteration prints entries in randomized order; sort the keys first", name)
	case (path == "bytes" || path == "strings") && strings.HasPrefix(name, "Write") && fn.Type().(*types.Signature).Recv() != nil:
		p.Reportf(call.Pos(), "%s.%s inside map iteration builds output in randomized order; sort the keys first", path, name)
	case strings.HasSuffix(path, "internal/sim") && (name == "Go" || name == "After") && fn.Type().(*types.Signature).Recv() != nil:
		p.Reportf(call.Pos(), "sim.Env.%s inside map iteration schedules work in randomized order, perturbing the virtual-clock event sequence; iterate sorted keys", name)
	}
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// insideRange reports whether pos falls within the range statement.
func insideRange(pos token.Pos, rs *ast.RangeStmt) bool {
	return pos >= rs.Pos() && pos <= rs.End()
}

// sortedAfter reports whether obj is handed to a sort.*/slices.* call
// positioned after end within the function body — the second half of
// the collect-then-sort idiom.
func sortedAfter(p *Pass, fnBody *ast.BlockStmt, obj types.Object, end token.Pos) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < end {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
