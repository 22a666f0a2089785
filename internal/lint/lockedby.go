package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// lockedbyAnalyzer enforces lock-discipline annotations: a struct field
// annotated //adws:locked(mu) may only be read or written inside a
// function that either contains a call of the form <...>.mu.Lock() /
// mu.Lock() (RLock counts), or is annotated //adws:requires(mu) — the
// contract that its caller already holds the lock (the repo convention
// for such helpers is a *Locked name suffix).
//
// The lock name is matched textually against the final selector of the
// Lock call's receiver, so it can name a sibling field (rootMu for
// rootQ), a promoted embedded mutex (ml for the ml struct's embedded
// sync.Mutex), or a lock owned by an enclosing struct. This is a
// heuristic, not an alias analysis: it verifies the discipline is written
// down, not that the right instance is locked.
var lockedbyAnalyzer = &Analyzer{
	Name: "lockedby",
	Run:  runLockedby,
}

func runLockedby(u *Universe) []Diagnostic {
	// Pass 1: collect annotated field objects, module-wide (a field
	// declared in one target package may be accessed from another).
	guarded := make(map[*types.Var]string)
	for _, p := range u.Module {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					args := directiveArgs("locked", field.Doc, field.Comment)
					if len(args) == 0 || args[0] == "" {
						continue
					}
					for _, name := range field.Names {
						if v, ok := p.Info.Defs[name].(*types.Var); ok {
							guarded[v] = args[0]
						}
					}
				}
				return true
			})
		}
	}
	if len(guarded) == 0 {
		return nil
	}

	// Pass 2: check every access site in the target packages.
	var diags []Diagnostic
	for _, p := range u.Targets {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, checkFuncLocking(u, p, fd, guarded)...)
			}
		}
	}
	return diags
}

// checkFuncLocking reports guarded-field accesses in fd that are covered
// neither by a Lock call on the named lock nor by //adws:requires.
func checkFuncLocking(u *Universe, p *Package, fd *ast.FuncDecl, guarded map[*types.Var]string) []Diagnostic {
	satisfied := make(map[string]bool)
	for _, arg := range directiveArgs("requires", fd.Doc) {
		if arg != "" {
			satisfied[arg] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if name := finalSelectorName(sel.X); name != "" {
			satisfied[name] = true
		}
		return true
	})

	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		lock, ok := guarded[v]
		if !ok || satisfied[lock] {
			return true
		}
		fname := fd.Name.Name
		if fd.Recv != nil {
			fname = recvDisplayName(fd) + "." + fname
		}
		diags = append(diags, Diagnostic{
			Pos:      u.position(sel.Sel.Pos()),
			Analyzer: "lockedby",
			Message: fmt.Sprintf("field %s is guarded by %q, but %s neither locks %s nor is annotated //adws:requires(%s)",
				v.Name(), lock, fname, lock, lock),
		})
		return true
	})
	return diags
}

// finalSelectorName returns the last identifier of a selector chain
// (rootMu for p.rootMu, mu for e.mu, x for plain x), or "".
func finalSelectorName(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// recvDisplayName names fd's receiver type for messages.
func recvDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch e := t.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}
