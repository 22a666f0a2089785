package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The transitive analyzers (hotpath, hotalloc) share one call-graph
// walker: starting from every function annotated //adws:hotpath, they
// inspect the function body and every module-local
// function it can statically reach, attributing violations found in
// callees back to the annotated root through a call chain.
//
// Limits (shared by both analyzers): calls through interfaces, function
// values, and closures are not followed; only statically resolved calls
// to module functions are. Function-literal bodies are not descended
// into — a closure is a value, not necessarily executed on the hot path
// (hotalloc instead flags the literal itself, because building it is
// what allocates).

// violation is one banned construct found in, or reachable from, a
// checked function.
type violation struct {
	pos   token.Pos
	what  string
	chain []string // callee names from the root down to the violation
}

// localCheck inspects one AST node in the context of its package and
// returns the node's own violations plus whether the walk should descend
// into the node's children.
type localCheck func(p *Package, n ast.Node) (vs []violation, descend bool)

// bodyWalker memoizes, per function, the violations found in the
// function body or in any statically reachable module-local callee.
type bodyWalker struct {
	u        *Universe
	local    localCheck
	checked  map[*types.Func][]violation
	visiting map[*types.Func]bool
}

func newBodyWalker(u *Universe, local localCheck) *bodyWalker {
	u.buildFuncIndex()
	return &bodyWalker{
		u:        u,
		local:    local,
		checked:  make(map[*types.Func][]violation),
		visiting: make(map[*types.Func]bool),
	}
}

// check returns the violations in or reachable from fn, memoized per
// function (resolving generic instantiations to their origin).
func (w *bodyWalker) check(fn *types.Func) []violation {
	fn = fn.Origin()
	if vs, ok := w.checked[fn]; ok {
		return vs
	}
	if w.visiting[fn] { // recursion cycle: already accounted for
		return nil
	}
	fd := w.u.lookupFunc(fn)
	if fd == nil || fd.decl.Body == nil {
		return nil // outside the module or a bodyless (assembly) stub
	}
	w.visiting[fn] = true
	var out []violation
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		vs, descend := w.local(fd.pkg, n)
		out = append(out, vs...)
		if call, ok := n.(*ast.CallExpr); ok && descend {
			if callee := calleeOf(fd.pkg.Info, call); callee != nil && w.u.lookupFunc(callee) != nil {
				for _, v := range w.check(callee) {
					out = append(out, violation{pos: v.pos, what: v.what,
						chain: append([]string{funcDisplayName(callee)}, v.chain...)})
				}
			}
		}
		return descend
	})
	delete(w.visiting, fn)
	w.checked[fn] = out
	return out
}

// runTransitive drives a bodyWalker from every target function annotated
// //adws:hotpath and renders its violations as diagnostics for the named
// analyzer, deduplicating sites reachable from several roots.
func runTransitive(u *Universe, analyzer string, w *bodyWalker) []Diagnostic {
	reported := make(map[token.Pos]bool)
	var diags []Diagnostic
	for _, p := range u.Targets {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasDirective("hotpath", fd.Doc) {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				for _, v := range w.check(fn) {
					if reported[v.pos] {
						continue
					}
					reported[v.pos] = true
					msg := v.what
					if len(v.chain) > 0 {
						msg = fmt.Sprintf("%s (reached via %s)", v.what,
							strings.Join(append([]string{funcDisplayName(fn)}, v.chain...), " -> "))
					}
					diags = append(diags, Diagnostic{
						Pos:      u.position(v.pos),
						Analyzer: analyzer,
						Message:  fmt.Sprintf("hot path %s: %s", funcDisplayName(fn), msg),
					})
				}
			}
		}
	}
	return diags
}
