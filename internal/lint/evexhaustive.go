package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// evexhaustiveAnalyzer enforces event-switch exhaustiveness: every switch
// whose tag has type trace.EventType must either handle every Ev*
// constant declared in the trace package or carry an explicit default
// clause. Adding a new event type (as PR 3 did with EvPark/EvWake) then
// fails the build gate at every consumer that was not updated, instead of
// silently miscounting.
var evexhaustiveAnalyzer = &Analyzer{
	Name: "evexhaustive",
	Run:  runEvexhaustive,
}

func runEvexhaustive(u *Universe) []Diagnostic {
	var diags []Diagnostic
	for _, p := range u.Targets {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				diags = append(diags, checkEventSwitch(u, p, sw)...)
				return true
			})
		}
	}
	return diags
}

// checkEventSwitch validates one switch statement if its tag is an
// EventType.
func checkEventSwitch(u *Universe, p *Package, sw *ast.SwitchStmt) []Diagnostic {
	tv, ok := p.Info.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	// Matched by name rather than hard-coded import path so the analyzer
	// also applies to the testdata harness's miniature trace package.
	if obj.Name() != "EventType" || obj.Pkg() == nil || obj.Pkg().Name() != "trace" {
		return nil
	}

	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return nil // explicit default: exhaustiveness is opt-out here
		}
		for _, expr := range cc.List {
			var id *ast.Ident
			switch e := ast.Unparen(expr).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			}
			if id == nil {
				continue
			}
			if c, ok := p.Info.Uses[id].(*types.Const); ok && c.Pkg() == obj.Pkg() {
				covered[c.Name()] = true
			}
		}
	}

	var missing []string
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Ev") {
			continue
		}
		if !types.Identical(c.Type(), named) {
			continue
		}
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return []Diagnostic{{
		Pos:      u.position(sw.Pos()),
		Analyzer: "evexhaustive",
		Message: fmt.Sprintf("switch on %s.EventType is missing cases %s (handle them or add an explicit default)",
			obj.Pkg().Name(), strings.Join(missing, ", ")),
	}}
}
