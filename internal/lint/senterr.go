package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SentErr forbids identity comparison (`==`, `!=`, `switch ... case`)
// against exported Err* sentinel values. Middleware wraps errors with
// fmt.Errorf("...: %w", err), and an identity comparison silently stops
// matching the moment a wrapping layer is inserted between producer and
// consumer — the bug that broke the faas OOM-retry path when the store
// resilience middleware landed. errors.Is matches through wrapping.
var SentErr = &Analyzer{
	Name: "senterr",
	Doc:  "forbid ==/!=/switch comparison against exported Err* sentinels; use errors.Is so wrapped errors still match",
	Run:  runSentErr,
}

func runSentErr(p *Pass) error {
	errType := types.Universe.Lookup("error").Type()
	// sentinel returns the name of the exported package-level Err*
	// error variable e refers to, or "".
	sentinel := func(e ast.Expr) string {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return ""
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "" // not package-level
		}
		if !strings.HasPrefix(v.Name(), "Err") || !v.Exported() {
			return ""
		}
		if !types.AssignableTo(v.Type(), errType) {
			return ""
		}
		return v.Name()
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilObj := p.Info.Uses[id].(*types.Nil)
		return isNilObj
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isNil(n.X) || isNil(n.Y) {
					return true // err == nil / ErrFoo != nil are identity checks by design
				}
				name := sentinel(n.X)
				if name == "" {
					name = sentinel(n.Y)
				}
				if name != "" {
					p.Reportf(n.Pos(), "identity comparison with sentinel %s misses wrapped errors; use errors.Is(err, %s)", name, name)
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tv, ok := p.Info.Types[n.Tag]
				if !ok || tv.Type == nil || !types.AssignableTo(tv.Type, errType) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name := sentinel(e); name != "" {
							p.Reportf(e.Pos(), "switch on an error compares sentinel %s by identity; use if/else with errors.Is(err, %s)", name, name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
