// Package lint implements adwsvet, the project-specific static-analysis
// suite that enforces the scheduler's concurrency invariants. It is built
// only on the standard library (go/ast, go/parser, go/types, go/build) so
// go.mod stays dependency-free; package discovery is driven by
// `go list -json` (see load.go).
//
// Five analyzers ship, each enforcing an invariant that neither the
// compiler, go vet, the tests nor the race detector catches (docs/LINT.md
// has the policy and the mutation audit behind that claim):
//
//   - hotpath: functions annotated //adws:hotpath must not, transitively
//     within the module, lock a sync.Mutex, perform channel operations
//     (except lines annotated //adws:allow — the one-slot wake-channel
//     pattern), call time.Sleep or anything in fmt, or defer.
//   - hotalloc: //adws:hotpath functions must not, transitively, heap-
//     allocate: new/make, composite literals, closures, escaping appends
//     and interface boxing are flagged.
//   - lockorder: the program-wide mutex acquisition graph — built from
//     Lock/Unlock call sites plus //adws:requires facts — must follow the
//     ranks declared by //adws:lockrank(n) and contain no cycles.
//   - lockedby: fields annotated //adws:locked(mu) may only be accessed in
//     functions that lock mu or are annotated //adws:requires(mu).
//   - evexhaustive: every switch over trace.EventType must handle all Ev*
//     constants or carry an explicit default clause.
//
// Directive grammar: a directive is a //-comment whose text (after "//",
// no space) starts with "adws:", attached to the declaration it governs
// (function doc, field doc or trailing comment) — or, for the one
// line-scoped directive //adws:allow, placed on the offending line or the
// line directly above.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker run over a Universe.
type Analyzer struct {
	Name string
	Run  func(u *Universe) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		hotpathAnalyzer,
		evexhaustiveAnalyzer,
		lockedbyAnalyzer,
		lockorderAnalyzer,
		hotallocAnalyzer,
	}
}

// Package is one type-checked package under analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Universe is the analysis unit: the target packages plus every other
// module package they pull in (the hotpath analyzer follows calls
// transitively across package boundaries, so it needs module-wide ASTs).
type Universe struct {
	Fset *token.FileSet
	// Targets are the packages named on the command line, the ones
	// analyzers walk for annotations and violations.
	Targets []*Package
	// Module holds every loaded module-local package (superset of Targets)
	// keyed by import path; transitive analyses index into it.
	Module map[string]*Package

	funcDecls map[*types.Func]*funcDecl
	// allowLines indexes the //adws:allow comments: filename -> line
	// carrying one.
	allowLines map[string]map[int]bool
}

// funcDecl pairs a function declaration with the package it lives in.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Run executes the given analyzers (all of them if nil) and returns the
// merged findings sorted by position.
func (u *Universe) Run(analyzers []*Analyzer) []Diagnostic {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(u)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags
}

// directive is one parsed //adws:name(args) comment.
type directive struct {
	name string // e.g. "hotpath", "locked", "requires", "allow"
	args string // inside the parentheses, "" if none
	pos  token.Pos
}

// parseDirectives extracts adws directives from a comment group.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "adws:") {
				continue
			}
			text = strings.TrimPrefix(text, "adws:")
			// The directive token ends at the first space; everything after
			// is free-form commentary.
			if i := strings.IndexByte(text, ' '); i >= 0 {
				text = text[:i]
			}
			d := directive{name: text, pos: c.Pos()}
			if i := strings.IndexByte(text, '('); i >= 0 && strings.HasSuffix(text, ")") {
				d.name = text[:i]
				d.args = text[i+1 : len(text)-1]
			}
			out = append(out, d)
		}
	}
	return out
}

// hasDirective reports whether the comment groups carry //adws:<name>.
func hasDirective(name string, groups ...*ast.CommentGroup) bool {
	for _, d := range parseDirectives(groups...) {
		if d.name == name {
			return true
		}
	}
	return false
}

// directiveArgs returns the args of every //adws:<name>(...) directive in
// the comment groups.
func directiveArgs(name string, groups ...*ast.CommentGroup) []string {
	var out []string
	for _, d := range parseDirectives(groups...) {
		if d.name == name {
			out = append(out, d.args)
		}
	}
	return out
}

// position resolves a token.Pos against the universe's file set.
func (u *Universe) position(pos token.Pos) token.Position {
	return u.Fset.Position(pos)
}

// allowed reports whether pos sits on (or directly under) a line carrying
// //adws:allow. The index of those lines is built on first use.
func (u *Universe) allowed(pos token.Pos) bool {
	if u.allowLines == nil {
		u.allowLines = make(map[string]map[int]bool)
		for _, p := range u.Module {
			for _, f := range p.Files {
				for _, g := range f.Comments {
					for _, d := range parseDirectives(g) {
						if d.name != "allow" {
							continue
						}
						at := u.position(d.pos)
						if u.allowLines[at.Filename] == nil {
							u.allowLines[at.Filename] = make(map[int]bool)
						}
						u.allowLines[at.Filename][at.Line] = true
					}
				}
			}
		}
	}
	p := u.position(pos)
	m := u.allowLines[p.Filename]
	return m[p.Line] || m[p.Line-1]
}

// buildFuncIndex maps every module function object to its declaration so
// transitive analyses can walk call chains across packages.
func (u *Universe) buildFuncIndex() {
	if u.funcDecls != nil {
		return
	}
	u.funcDecls = make(map[*types.Func]*funcDecl)
	for _, p := range u.Module {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					u.funcDecls[fn] = &funcDecl{pkg: p, decl: fd}
				}
			}
		}
	}
}

// lookupFunc finds the module declaration of fn (resolving generic
// instantiations to their origin), or nil for functions outside the module.
func (u *Universe) lookupFunc(fn *types.Func) *funcDecl {
	u.buildFuncIndex()
	return u.funcDecls[fn.Origin()]
}

// calleeOf resolves a call expression to the called function object, or
// nil for builtins, function-valued expressions, and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcDisplayName renders fn as pkg.Name or pkg.(Recv).Name for messages.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
