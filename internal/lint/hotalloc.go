package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotallocAnalyzer enforces the allocation-free property on the
// scheduler's hot paths: a function annotated //adws:hotpath must not —
// transitively, through every module-local function it can statically
// reach — heap-allocate. The per-task overhead floor ("Scheduling
// computations with provably low synchronization overheads", PAPERS.md)
// assumes the steal/park/record fast paths cost a bounded handful of
// atomic operations; a single escaping closure or boxed interface
// argument quietly adds a malloc plus GC pressure per task.
//
// Flagged constructs:
//
//   - new(T) and make(...)
//   - &T{...} (address of a composite literal) and slice/map literals;
//     plain value struct literals are NOT flagged — they are
//     stack-allocated unless they escape, and escape through a call is
//     caught at the call site by the boxing rule
//   - function literals (building the closure is the allocation)
//   - append whose destination or source slice is a field, global, or
//     dereference — the grown backing array outlives the call
//   - implicit or explicit conversion of a concrete non-pointer-shaped
//     value to an interface type (boxing); pointers, maps, chans and
//     funcs are pointer-shaped and convert without allocating
//
// Escape hatch: //adws:allow on the line (or the line directly above)
// with a justification — the policy reserves it for amortized growth
// (deque ring doubling) and similarly bounded, off-steady-state
// allocations (docs/LINT.md).
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Run:  runHotalloc,
}

func runHotalloc(u *Universe) []Diagnostic {
	w := newBodyWalker(u, func(p *Package, n ast.Node) ([]violation, bool) {
		info := p.Info
		switch n := n.(type) {
		case *ast.FuncLit:
			if !u.allowed(n.Pos()) {
				return []violation{{pos: n.Pos(), what: "allocates a closure (function literal)"}}, false
			}
			return nil, false
		case *ast.UnaryExpr:
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND && !u.allowed(n.Pos()) {
				// Slice/map literals are flagged at the literal itself.
				if t := info.Types[cl].Type; t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
					default:
						return []violation{{pos: n.Pos(),
							what: fmt.Sprintf("allocates: address of composite literal %s", typeLabel(info, cl))}}, true
					}
				}
			}
		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil && !u.allowed(n.Pos()) {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					return []violation{{pos: n.Pos(),
						what: fmt.Sprintf("allocates: %s literal", typeLabel(info, n))}}, true
				}
			}
		case *ast.AssignStmt:
			return checkHotallocAssign(u, info, n), true
		case *ast.CallExpr:
			return checkHotallocCall(u, info, n), true
		}
		return nil, true
	})
	return runTransitive(u, "hotalloc", w)
}

// checkHotallocAssign flags appends whose result is stored into a
// non-local destination (the grown backing array escapes) when the append
// operand itself was local and therefore not already flagged at the call.
func checkHotallocAssign(u *Universe, info *types.Info, n *ast.AssignStmt) []violation {
	var out []violation
	for i, rhs := range n.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
			continue
		}
		if i >= len(n.Lhs) || u.allowed(call.Pos()) {
			continue
		}
		if !isLocalExpr(info, call.Args[0]) {
			continue // already flagged at the call site
		}
		if !isLocalExpr(info, n.Lhs[i]) {
			out = append(out, violation{pos: call.Pos(),
				what: "append stores into a field/global: the grown backing array escapes"})
		}
	}
	return out
}

// checkHotallocCall flags allocating builtins, explicit interface
// conversions, and implicit interface boxing of call arguments.
func checkHotallocCall(u *Universe, info *types.Info, call *ast.CallExpr) []violation {
	// Explicit conversion T(x): flag when T is an interface and x is a
	// concrete non-pointer-shaped value.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(info, call.Args[0], tv.Type) && !u.allowed(call.Pos()) {
			return []violation{{pos: call.Pos(),
				what: fmt.Sprintf("allocates: conversion to interface %s boxes its operand", tv.Type.String())}}
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new", "make":
				if !u.allowed(call.Pos()) {
					return []violation{{pos: call.Pos(), what: "allocates with " + b.Name()}}
				}
			case "append":
				if len(call.Args) > 0 && !isLocalExpr(info, call.Args[0]) && !u.allowed(call.Pos()) {
					return []violation{{pos: call.Pos(),
						what: "append grows a field/global slice: the backing array escapes"}}
				}
			}
			return nil
		}
	}
	// Implicit boxing: a concrete argument passed for an interface
	// parameter (including variadic ...interface{} — the fmt-style boxing).
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok {
		return nil
	}
	var out []violation
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil {
			continue
		}
		if boxes(info, arg, pt) && !u.allowed(arg.Pos()) {
			out = append(out, violation{pos: arg.Pos(),
				what: fmt.Sprintf("allocates: argument %s boxes a concrete value into %s", exprLabel(arg), pt.String())})
		}
	}
	return out
}

// paramType returns the type the i-th argument is assigned to, resolving
// variadic parameters to their element type (nil when the call uses an
// explicit ... spread, which passes the slice through without boxing).
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	np := sig.Params().Len()
	if sig.Variadic() && i >= np-1 {
		if ellipsis {
			return nil
		}
		if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= np {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxes reports whether assigning arg to an interface-typed slot
// heap-allocates: the destination is an interface, the argument is a
// concrete value, and its representation is not pointer-shaped.
func boxes(info *types.Info, arg ast.Expr, dst types.Type) bool {
	if !types.IsInterface(dst) {
		return false
	}
	if tv, ok := info.Types[ast.Unparen(arg)]; ok && tv.Value != nil {
		return false // constants convert to static interface data, no alloc
	}
	at := typeOf(info, arg)
	if at == nil || types.IsInterface(at) {
		return false
	}
	switch u := at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: the interface data word holds it directly
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.Invalid
	}
	return true
}

// isLocalExpr reports whether expr is a plain reference to a function-
// local variable (including parameters); selectors, indexing, derefs and
// package-level vars are non-local, so their backing arrays escape.
func isLocalExpr(info *types.Info, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() != v.Pkg().Scope() // declared inside a function
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// typeOf returns the static type of expr, nil when unknown.
func typeOf(info *types.Info, expr ast.Expr) types.Type {
	if tv, ok := info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// typeLabel renders the type of a composite literal for messages.
func typeLabel(info *types.Info, cl *ast.CompositeLit) string {
	if t := typeOf(info, cl); t != nil {
		return t.String()
	}
	return "value"
}

// exprLabel renders a short source-ish label for an expression.
func exprLabel(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return finalSelectorName(e.X) + "." + e.Sel.Name
	case *ast.BasicLit:
		return e.Value
	}
	return "value"
}
