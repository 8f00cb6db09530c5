package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix reports any field (or package-level variable) that is
// accessed both through sync/atomic and through plain loads/stores
// anywhere in the program. Mixing the two is the quiet way to corrupt
// a counter: the atomic side establishes no happens-before for the
// plain side, the race detector only sees it on the interleaving that
// actually collides, and the corrupted value is usually a statistic
// the experiment harness reports as truth. The program pass collects
// the atomic access set (field class → one site) of every package,
// then re-walks them all for unsanctioned plain accesses to those
// classes.
//
// Sanctioned (not plain) uses: passing &f to a sync/atomic function,
// calling a method on a typed atomic (atomic.Int64 and friends),
// taking the address of a typed-atomic field to hand the pointer on,
// and composite-literal construction (which precedes publication).
// Plain accesses in _test.go files are exempt: tests assert on
// quiesced state after the simulation stops. Typed-atomic fields are
// also checked for plain assignment/copy — `s.ops = atomic.Int64{}`
// resets a live counter racily.
var AtomicMix = &Analyzer{
	Name:       "atomicmix",
	Doc:        "forbid mixing sync/atomic and plain access to the same field anywhere in the program",
	RunProgram: runAtomicMixProgram,
}

// atomicSites records in into, for every field class ("pkg.Type.field"
// or "pkg.var") the package accesses atomically, the first such site.
func atomicSites(p *Pass, into map[string]token.Position) {
	note := func(e ast.Expr) {
		class := fieldClass(p, e)
		if class == "" {
			return
		}
		pos := p.Fset.Position(e.Pos())
		if old, ok := into[class]; !ok || positionLess(pos, old) {
			into[class] = pos
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// Typed atomic method: s.ops.Add(1) — the receiver is
				// the atomically-accessed location.
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					note(sel.X)
				}
				return true
			}
			// Function style: atomic.AddInt64(&s.n, 1).
			for _, arg := range call.Args {
				if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
					note(un.X)
				}
			}
			return true
		})
	}
}

// positionLess orders positions by (file, line, col), so the site a
// message quotes does not depend on the order packages were walked in.
func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func runAtomicMixProgram(pp *ProgramPass) error {
	atomic := map[string]token.Position{}
	for _, pkg := range pp.Pkgs {
		atomicSites(pp.pass(pkg), atomic)
	}
	if len(atomic) == 0 {
		return nil
	}
	for _, pkg := range pp.Pkgs {
		p := pp.pass(pkg)
		sanctioned := atomicSanctioned(p)
		for _, f := range pkg.Files {
			if p.InTestFile(f.Pos()) {
				continue // tests assert on quiesced state
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var class string
				switch e := n.(type) {
				case *ast.SelectorExpr:
					if sanctioned[e] {
						return true
					}
					if s, ok := p.Info.Selections[e]; !ok || s.Kind() != types.FieldVal {
						return true
					}
					class = fieldClass(p, e)
				case *ast.Ident:
					if sanctioned[e] {
						return true
					}
					v, ok := p.Info.Uses[e].(*types.Var)
					if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
						return true
					}
					class = v.Pkg().Path() + "." + v.Name()
				default:
					return true
				}
				if site, ok := atomic[class]; ok && class != "" {
					p.Reportf(n.Pos(), "plain access to %s, which is accessed atomically at %s:%d; every load/store must go through sync/atomic (or move both sides under one mutex)",
						shortClass(class), site.Filename, site.Line)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// atomicSanctioned marks the expression nodes whose involvement with
// an atomic location is legitimate: atomic call receivers, &f
// arguments to sync/atomic functions, and addresses of typed-atomic
// fields.
func atomicSanctioned(p *Pass) map[ast.Expr]bool {
	out := map[ast.Expr]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						sanctionChain(out, sel.X)
					}
					return true
				}
				for _, arg := range n.Args {
					if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
						sanctionChain(out, un.X)
					}
				}
			case *ast.UnaryExpr:
				// &s.ops where ops is a typed atomic: the pointer can
				// only be used through methods downstream.
				if n.Op == token.AND && isTypedAtomic(p, n.X) {
					sanctionChain(out, n.X)
				}
			}
			return true
		})
	}
	return out
}

// sanctionChain sanctions an access expression. Only the accessed
// node itself is sanctioned — its base (`s` in `s.ops`) stays subject
// to its own checks.
func sanctionChain(out map[ast.Expr]bool, e ast.Expr) {
	out[ast.Unparen(e)] = true
}

// isTypedAtomic reports whether e's type is a named type from
// sync/atomic (Int64, Uint32, Bool, Value, Pointer[T], ...).
func isTypedAtomic(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	name := typeName(tv.Type)
	return strings.HasPrefix(name, "sync/atomic.")
}

// fieldClass names the struct field or package-level variable an
// expression denotes: "pkg.Type.field" or "pkg.var", or "".
func fieldClass(p *Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			owner := typeName(s.Recv())
			path := fieldPath(s.Recv(), s.Index())
			if owner == "" || path == "" {
				return ""
			}
			return owner + "." + path
		}
		if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.StarExpr:
		return fieldClass(p, e.X)
	case *ast.UnaryExpr:
		return fieldClass(p, e.X)
	}
	return ""
}

// fieldPath renders a selection index path as dotted field names.
func fieldPath(recv types.Type, index []int) string {
	t := recv
	var names []string
	for _, idx := range index {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return ""
		}
		f := st.Field(idx)
		names = append(names, f.Name())
		t = f.Type()
	}
	return strings.Join(names, ".")
}

// calleeFunc resolves a call's static callee, handling selectors,
// plain identifiers, and generic instantiations.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	case *ast.IndexExpr:
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if ident, ok := fun.X.(*ast.Ident); ok {
			id = ident
		}
	case *ast.IndexListExpr:
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if ident, ok := fun.X.(*ast.Ident); ok {
			id = ident
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// shortClass trims the module path prefix for readable messages:
// "ofc/internal/core.CacheAgent.mu" → "core.CacheAgent.mu".
func shortClass(class string) string {
	i := strings.LastIndex(class, "/")
	if i < 0 {
		return class
	}
	return class[i+1:]
}
