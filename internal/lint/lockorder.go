package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// lockorderAnalyzer enforces one global mutex acquisition order over the
// whole program. It builds the acquisition graph: an edge A -> B is
// recorded whenever a function acquires B (directly, or transitively
// through a statically reachable module callee) while holding A — where
// "holding" is tracked through Lock/RLock/TryLock calls, Unlock/RUnlock
// releases (deferred unlocks hold to function end), and //adws:requires(mu)
// entry facts. Mutex identity is the declared field or variable (the
// runtime's Pool.ml anonymous struct, the per-worker fdMu, the server and
// cluster mu webs), not the dynamic instance.
//
// Ranks: //adws:lockrank(n) on a mutex field (or on the embedded
// sync.Mutex/RWMutex inside the field's struct type) assigns rank n.
// Every acquisition edge must strictly increase the rank; edges between
// unranked mutexes are reported so the global order stays written down,
// and any cycle in the inferred graph is reported as a deadlock shape.
//
// Limits: the held-set is a linear, source-order approximation (an
// early-return unlock inside a branch under-approximates); closures and
// calls through interfaces or function values are not followed; locking
// two instances of the same declared mutex reports a self-cycle, which
// //adws:allow can waive where instances are provably ordered.
var lockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Run:  runLockorder,
}

const unranked = -1

// mutexInfo describes one mutex identity: a struct field or variable of
// a sync.Mutex/RWMutex type or of a struct type embedding one.
type mutexInfo struct {
	v    *types.Var
	name string // display name: pkg.Type.field or pkg.var
	rank int
}

type lockEdge struct{ from, to *types.Var }

type lockorderPass struct {
	u        *Universe
	mutexes  map[*types.Var]*mutexInfo
	acquires map[*types.Func]map[*types.Var]bool
	visiting map[*types.Func]bool
	edges    map[lockEdge]token.Pos // first witness of from-held -> to-acquired
	diags    []Diagnostic
}

func runLockorder(u *Universe) []Diagnostic {
	u.buildFuncIndex()
	pass := &lockorderPass{
		u:        u,
		mutexes:  make(map[*types.Var]*mutexInfo),
		acquires: make(map[*types.Func]map[*types.Var]bool),
		visiting: make(map[*types.Func]bool),
		edges:    make(map[lockEdge]token.Pos),
	}
	// Pass 1, module-wide: collect mutex fields/vars and their ranks.
	for _, p := range u.Module {
		for _, f := range p.Files {
			pass.collectDecls(p, f)
		}
	}
	// Pass 2, targets: scan every function body for nesting edges.
	for _, p := range u.Targets {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					pass.scanFunc(p, fd)
				}
			}
		}
	}
	pass.reportEdges()
	pass.reportCycles()
	return pass.diags
}

// collectDecls registers mutex-typed struct fields and package-level vars
// declared in f, with any //adws:lockrank(n) annotation.
func (lo *lockorderPass) collectDecls(p *Package, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				owner := spec.Name.Name
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						lo.collectStructFields(p, owner, st)
					}
					return true
				})
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok || !mutexish(v.Type()) {
						continue
					}
					lo.register(v, p.Pkg.Name()+"."+v.Name(),
						lo.rankDirective(p, spec.Doc, spec.Comment, gd.Doc))
				}
			}
		}
	}
}

// collectStructFields registers the mutexish fields of one struct type.
func (lo *lockorderPass) collectStructFields(p *Package, owner string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		rank := lo.rankDirective(p, field.Doc, field.Comment)
		if len(field.Names) == 0 {
			// Embedded mutex: the implicit field var is defined by the
			// terminal identifier of the type expression.
			if id := embeddedFieldIdent(field.Type); id != nil {
				if v, ok := p.Info.Defs[id].(*types.Var); ok && mutexish(v.Type()) {
					lo.register(v, p.Pkg.Name()+"."+owner+"."+v.Name(), rank)
				}
			}
			continue
		}
		for _, name := range field.Names {
			if v, ok := p.Info.Defs[name].(*types.Var); ok && mutexish(v.Type()) {
				lo.register(v, p.Pkg.Name()+"."+owner+"."+v.Name(), rank)
			}
		}
	}
}

func (lo *lockorderPass) register(v *types.Var, name string, rank int) {
	if mi, ok := lo.mutexes[v]; ok {
		if mi.rank == unranked {
			mi.rank = rank
		}
		return
	}
	lo.mutexes[v] = &mutexInfo{v: v, name: name, rank: rank}
}

// rankDirective parses //adws:lockrank(n) from the comment groups,
// reporting malformed ranks.
func (lo *lockorderPass) rankDirective(p *Package, groups ...*ast.CommentGroup) int {
	for _, g := range groups {
		for _, arg := range directiveArgs("lockrank", g) {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				lo.diags = append(lo.diags, Diagnostic{
					Pos:      lo.u.position(g.Pos()),
					Analyzer: "lockorder",
					Message:  fmt.Sprintf("malformed //adws:lockrank(%s): want a non-negative integer", arg),
				})
				return unranked
			}
			return n
		}
	}
	return unranked
}

// embeddedFieldIdent returns the identifier that names an embedded field
// (Mutex for sync.Mutex, T for *T).
func embeddedFieldIdent(expr ast.Expr) *ast.Ident {
	switch e := expr.(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return embeddedFieldIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// mutexish reports whether a variable of type t is a lockable identity:
// a sync.Mutex/RWMutex (possibly behind a pointer), or a struct type
// embedding one (the Pool.ml pattern).
func mutexish(t types.Type) bool {
	t = deref(t)
	if isSyncMutexType(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isSyncMutexType(deref(f.Type())) {
			return true
		}
	}
	return false
}

func isSyncMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// rankOf resolves the rank of identity v: its own annotation, or the
// annotation on the embedded mutex inside its struct type (so
// //adws:lockrank on an embedded sync.Mutex ranks every field of the
// enclosing type).
func (lo *lockorderPass) rankOf(v *types.Var) int {
	if mi, ok := lo.mutexes[v]; ok && mi.rank != unranked {
		return mi.rank
	}
	if st, ok := deref(v.Type()).Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Embedded() || !isSyncMutexType(deref(f.Type())) {
				continue
			}
			if mi, ok := lo.mutexes[f]; ok && mi.rank != unranked {
				return mi.rank
			}
		}
	}
	return unranked
}

// lockName renders identity v for messages.
func (lo *lockorderPass) lockName(v *types.Var) string {
	if mi, ok := lo.mutexes[v]; ok {
		return mi.name
	}
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// scanFunc walks fd's body in source order, tracking the held-set and
// recording acquisition edges, including edges through module callees'
// transitive acquire-sets. The scan is a linear pre-order approximation:
// a lock released only on an early-return branch is treated as released
// for the statements that follow in source order.
func (lo *lockorderPass) scanFunc(p *Package, fd *ast.FuncDecl) {
	held := lo.entryHeld(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures run elsewhere; not part of this held-set
		case *ast.GoStmt:
			// A spawned goroutine starts with an empty held-set; it merely
			// blocks (not deadlocks) on anything the spawner holds. Its own
			// nesting edges are recorded when its function is scanned.
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end; other
			// deferred calls are scanned as if they ran with the current
			// held-set (an approximation in both directions).
			if v, method := lo.lockTarget(p, n.Call); v != nil && isUnlockMethod(method) {
				return false
			}
			return true
		case *ast.CallExpr:
			if v, method := lo.lockTarget(p, n); v != nil {
				switch {
				case isLockMethod(method):
					if !lo.u.allowed(n.Pos()) {
						for _, h := range held {
							lo.addEdge(h, v, n.Pos())
						}
					}
					held = append(held, v)
				case isUnlockMethod(method):
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == v {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			// A module callee may acquire locks of its own: every mutex in
			// its transitive acquire-set nests under everything held here.
			if len(held) == 0 || lo.u.allowed(n.Pos()) {
				return true
			}
			if callee := calleeOf(p.Info, n); callee != nil && lo.u.lookupFunc(callee) != nil {
				for v := range lo.acquiresOf(callee) {
					for _, h := range held {
						lo.addEdge(h, v, n.Pos())
					}
				}
			}
		}
		return true
	})
}

// entryHeld resolves //adws:requires(mu) names against the receiver's
// fields, then package-level mutexes, then a module-unique field name.
func (lo *lockorderPass) entryHeld(p *Package, fd *ast.FuncDecl) []*types.Var {
	var held []*types.Var
	for _, arg := range directiveArgs("requires", fd.Doc) {
		if v := lo.resolveMutexName(p, fd, arg); v != nil {
			held = append(held, v)
		}
	}
	return held
}

// resolveMutexName maps a //adws:requires(name) to a mutex identity.
func (lo *lockorderPass) resolveMutexName(p *Package, fd *ast.FuncDecl, name string) *types.Var {
	if name == "" {
		return nil
	}
	// Receiver struct field of that name.
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tv, ok := p.Info.Types[fd.Recv.List[0].Type]; ok {
			if st, ok := deref(tv.Type).Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Name() == name && mutexish(f.Type()) {
						return f
					}
				}
			}
		}
	}
	// Package-level mutex var.
	if obj := p.Pkg.Scope().Lookup(name); obj != nil {
		if v, ok := obj.(*types.Var); ok && mutexish(v.Type()) {
			return v
		}
	}
	// Unique known mutex of that name anywhere in the module.
	var found *types.Var
	for v := range lo.mutexes {
		if v.Name() == name {
			if found != nil {
				return nil // ambiguous
			}
			found = v
		}
	}
	return found
}

// lockTarget resolves call to (mutex identity, method name) when it is a
// sync.Mutex/RWMutex method call, else (nil, "").
func (lo *lockorderPass) lockTarget(p *Package, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return nil, ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, ""
	}
	x := ast.Unparen(sel.X)
	if un, ok := x.(*ast.UnaryExpr); ok && un.Op == token.AND {
		x = ast.Unparen(un.X)
	}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok {
			lo.lazyRegister(p, v)
			return v, fn.Name()
		}
	case *ast.Ident:
		obj, ok := p.Info.Uses[x].(*types.Var)
		if !ok {
			return nil, ""
		}
		// A variable that IS a mutex (local or package-level sync.Mutex).
		if isSyncMutexType(deref(obj.Type())) {
			lo.lazyRegister(p, obj)
			return obj, fn.Name()
		}
		// A promoted method on the receiver/local struct (s.Lock() with an
		// embedded sync.Mutex): resolve the embedded mutex field through
		// the selection's field path so every function that locks the same
		// declared field shares one identity.
		if selinfo, ok := p.Info.Selections[sel]; ok {
			if st, ok := deref(obj.Type()).Underlying().(*types.Struct); ok {
				idx := selinfo.Index()
				if len(idx) > 1 && idx[0] < st.NumFields() {
					f := st.Field(idx[0])
					lo.lazyRegister(p, f)
					return f, fn.Name()
				}
			}
		}
	}
	return nil, ""
}

// lazyRegister names identities first seen at a lock site (local vars,
// fields of anonymous types declared outside pass 1's walk).
func (lo *lockorderPass) lazyRegister(p *Package, v *types.Var) {
	if _, ok := lo.mutexes[v]; ok {
		return
	}
	name := v.Name()
	if v.Pkg() != nil {
		name = v.Pkg().Name() + "." + name
	}
	lo.mutexes[v] = &mutexInfo{v: v, name: name, rank: unranked}
}

func isUnlockMethod(m string) bool { return m == "Unlock" || m == "RUnlock" }
func isLockMethod(m string) bool {
	return m == "Lock" || m == "RLock" || m == "TryLock" || m == "TryRLock"
}

// acquiresOf returns the set of mutex identities fn may acquire,
// directly or through statically reachable module callees, memoized.
func (lo *lockorderPass) acquiresOf(fn *types.Func) map[*types.Var]bool {
	fn = fn.Origin()
	if s, ok := lo.acquires[fn]; ok {
		return s
	}
	if lo.visiting[fn] {
		return nil
	}
	fd := lo.u.lookupFunc(fn)
	if fd == nil || fd.decl.Body == nil {
		lo.acquires[fn] = nil
		return nil
	}
	lo.visiting[fn] = true
	set := make(map[*types.Var]bool)
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // runs on another goroutine / not on this path
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, method := lo.lockTarget(fd.pkg, call); v != nil {
			if isLockMethod(method) {
				set[v] = true
			}
			return true
		}
		if callee := calleeOf(fd.pkg.Info, call); callee != nil && lo.u.lookupFunc(callee) != nil {
			for v := range lo.acquiresOf(callee) {
				set[v] = true
			}
		}
		return true
	})
	delete(lo.visiting, fn)
	lo.acquires[fn] = set
	return set
}

// addEdge records the first witness of acquiring `to` while holding
// `from`.
func (lo *lockorderPass) addEdge(from, to *types.Var, pos token.Pos) {
	e := lockEdge{from, to}
	if _, ok := lo.edges[e]; !ok {
		lo.edges[e] = pos
	}
}

// reportEdges turns the collected edges into diagnostics: rank
// inversions, and unranked nesting.
func (lo *lockorderPass) reportEdges() {
	type flat struct {
		e   lockEdge
		pos token.Pos
	}
	var all []flat
	for e, pos := range lo.edges {
		all = append(all, flat{e, pos})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	for _, f := range all {
		from, to := f.e.from, f.e.to
		rf, rt := lo.rankOf(from), lo.rankOf(to)
		switch {
		case from == to:
			lo.diags = append(lo.diags, Diagnostic{
				Pos:      lo.u.position(f.pos),
				Analyzer: "lockorder",
				Message: fmt.Sprintf("%s acquired while already held (self-deadlock unless instances are ordered; //adws:allow to waive)",
					lo.lockName(from)),
			})
		case rf != unranked && rt != unranked && rt <= rf:
			lo.diags = append(lo.diags, Diagnostic{
				Pos:      lo.u.position(f.pos),
				Analyzer: "lockorder",
				Message: fmt.Sprintf("lock order inversion: %s (rank %d) acquired while holding %s (rank %d); ranks must strictly increase",
					lo.lockName(to), rt, lo.lockName(from), rf),
			})
		case rf == unranked || rt == unranked:
			lo.diags = append(lo.diags, Diagnostic{
				Pos:      lo.u.position(f.pos),
				Analyzer: "lockorder",
				Message: fmt.Sprintf("unranked lock nesting: %s acquired while holding %s (annotate both with //adws:lockrank)",
					lo.lockName(to), lo.lockName(from)),
			})
		}
	}
}

// reportCycles finds strongly connected components of size > 1 in the
// edge graph (self-edges are reported by reportEdges) and reports each
// once at its earliest witness.
func (lo *lockorderPass) reportCycles() {
	adj := make(map[*types.Var][]*types.Var)
	for e := range lo.edges {
		if e.from != e.to {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	// Tarjan's SCC.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var counter int
	var sccs [][]*types.Var
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	var nodes []*types.Var
	for v := range adj {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return lo.lockName(nodes[i]) < lo.lockName(nodes[j]) })
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	for _, scc := range sccs {
		names := make([]string, 0, len(scc))
		pos := token.Pos(0)
		member := make(map[*types.Var]bool, len(scc))
		for _, v := range scc {
			member[v] = true
		}
		sort.Slice(scc, func(i, j int) bool { return lo.lockName(scc[i]) < lo.lockName(scc[j]) })
		for _, v := range scc {
			names = append(names, lo.lockName(v))
		}
		for e, p := range lo.edges {
			if member[e.from] && member[e.to] && (pos == 0 || p < pos) {
				pos = p
			}
		}
		lo.diags = append(lo.diags, Diagnostic{
			Pos:      lo.u.position(pos),
			Analyzer: "lockorder",
			Message: fmt.Sprintf("lock-order cycle among {%s}: these mutexes acquire each other in both orders",
				strings.Join(names, ", ")),
		})
	}
}
