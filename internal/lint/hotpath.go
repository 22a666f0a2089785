package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathAnalyzer enforces the low-synchronization property on the
// scheduler's hot paths: a function annotated //adws:hotpath (deque
// push/pop/steal, trace recording, the park/wake fast paths, the idle-bit
// claim path) must not — transitively, through every module-local function
// it can statically reach — lock a sync.Mutex or sync.RWMutex, perform a
// channel operation, call time.Sleep or any fmt function, or defer.
//
// Escape hatch: a channel operation on a line annotated //adws:allow (same
// line or the line directly above) is permitted; the policy reserves it
// for the one-slot wake-channel semaphore (docs/LINT.md).
//
// Limits: calls through interfaces, function values, and closures are not
// followed; only statically resolved calls to module functions are.
var hotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Run:  runHotpath,
}

func runHotpath(u *Universe) []Diagnostic {
	w := newBodyWalker(u, func(p *Package, n ast.Node) ([]violation, bool) {
		info := p.Info
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures are values, not necessarily executed on the hot
			// path; they are not followed (see analyzer doc).
			return nil, false
		case *ast.DeferStmt:
			return []violation{{pos: n.Pos(), what: "defer is not allowed"}}, true
		case *ast.SendStmt:
			if !u.allowed(n.Pos()) {
				return []violation{{pos: n.Pos(),
					what: "channel send (use //adws:allow only for the one-slot wake channel)"}}, true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !u.allowed(n.Pos()) {
				return []violation{{pos: n.Pos(),
					what: "channel receive (use //adws:allow only for the one-slot wake channel)"}}, true
			}
		case *ast.SelectStmt:
			if !u.allowed(n.Pos()) {
				return []violation{{pos: n.Pos(), what: "select statement"}}, true
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !u.allowed(n.Pos()) {
					return []violation{{pos: n.Pos(), what: "range over channel"}}, true
				}
			}
		case *ast.CallExpr:
			return checkHotpathCall(u, info, n), true
		}
		return nil, true
	})
	return runTransitive(u, "hotpath", w)
}

// checkHotpathCall classifies one call site against the banned stdlib
// constructs (module-local callees are followed by the shared walker).
func checkHotpathCall(u *Universe, info *types.Info, call *ast.CallExpr) []violation {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "close" && !u.allowed(call.Pos()) {
				return []violation{{pos: call.Pos(), what: "close on channel"}}
			}
			return nil
		}
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && fn.Name() == "Sleep":
		return []violation{{pos: call.Pos(), what: "calls time.Sleep"}}
	case path == "fmt":
		return []violation{{pos: call.Pos(), what: "calls fmt." + fn.Name()}}
	case path == "sync":
		if recv := recvTypeName(fn); (recv == "Mutex" || recv == "RWMutex") &&
			(fn.Name() == "Lock" || fn.Name() == "RLock" || fn.Name() == "TryLock" || fn.Name() == "TryRLock") {
			return []violation{{pos: call.Pos(),
				what: fmt.Sprintf("locks sync.%s (%s)", recv, fn.Name())}}
		}
	}
	return nil
}

// recvTypeName returns the name of fn's receiver type, "" for plain
// functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
