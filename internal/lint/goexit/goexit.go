// Package goexit requires every `go` statement in non-test code to have
// a provable shutdown edge: some statically visible way for the spawned
// goroutine to learn it should exit. The service layer's goroutine count
// must stay bounded as batch modes and background sweeps grow — a
// goroutine without a shutdown edge is a leak waiting for the first
// long-lived process that constructs more than one of its owner.
//
// Accepted evidence, looked for in the spawned function's body and in
// every same-package function reachable from it (see
// internal/lint/callgraph):
//
//   - a comma-ok channel receive (v, ok := <-ch) — the close-protocol
//     read of the service apply loop's intake drain;
//   - a range loop over a channel — terminates when the channel closes;
//   - a call (usually deferred) to (*sync.WaitGroup).Done — the bounded
//     fan-out shape of experiments' worker pools;
//   - a select with a receive case whose body returns — the done-channel
//     / ctx.Done() shape.
//
// Spawns that cannot be resolved to a function declared in the same
// package (function-typed variables, external functions) are reported:
// their shutdown behavior is not provable here. Genuinely process-lifetime
// goroutines (a pprof listener) are declared with
// //lint:allow goexit <reason> at the go statement.
package goexit

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"affinitycluster/internal/lint/analysis"
	"affinitycluster/internal/lint/callgraph"
)

// Analyzer is the goexit rule.
var Analyzer = &analysis.Analyzer{
	Name: "goexit",
	Doc: "every go statement in non-test code needs a provable shutdown edge " +
		"(WaitGroup.Done, done-channel receive, channel range, or select-with-return)",
	Explain: `goexit — no goroutine without a shutdown edge.

Every "go" statement in non-test code must spawn a function that can
provably learn it should exit. The analyzer resolves the spawned
function (literal, same-package function, or method), walks everything
reachable from it in the package's may-call graph, and accepts any of:

  - v, ok := <-ch        (close-protocol receive)
  - for v := range ch    (drains until close)
  - wg.Done()            (bounded fan-out joined by the spawner)
  - select { case <-done: ... return }   (done-channel / ctx.Done shape)

Spawning something unresolvable — a function value, another package's
function — is reported too: if the shutdown edge lives elsewhere, wrap
the spawn in a named local function that exhibits it.

Escape hatch: a deliberate process-lifetime goroutine gets
"//lint:allow goexit <reason>" on the go statement. The reason is
mandatory and audited for staleness by the driver.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	graph := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkSpawn(pass, graph, g)
			return true
		})
	}
	return nil, nil
}

func checkSpawn(pass *analysis.Pass, graph *callgraph.Graph, g *ast.GoStmt) {
	switch fun := unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if litHasShutdownEdge(pass, graph, fun) {
			return
		}
		report(pass, g.Pos(), "goroutine literal")
	default:
		fn := calleeFunc(pass, fun)
		if fn == nil || fn.Pkg() != pass.Pkg {
			pass.Reportf(g.Pos(), "go statement spawns a function not declared in this package; "+
				"its shutdown edge is unprovable here — wrap it in a local function with one, "+
				"or annotate //lint:allow goexit <reason> if it is process-lifetime")
			return
		}
		if funcHasShutdownEdge(pass, graph, fn) {
			return
		}
		report(pass, g.Pos(), fn.Name())
	}
}

func report(pass *analysis.Pass, pos token.Pos, what string) {
	pass.Reportf(pos, "%s has no provable shutdown edge (no WaitGroup.Done, comma-ok receive, "+
		"channel range, or select-with-return); add one or annotate //lint:allow goexit <reason>", what)
}

// calleeFunc resolves the spawned expression to a function object.
func calleeFunc(pass *analysis.Pass, fun ast.Expr) *types.Func {
	switch x := fun.(type) {
	case *ast.Ident:
		fn, _ := pass.ObjectOf(x).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.ObjectOf(x.Sel).(*types.Func)
		return fn
	}
	return nil
}

// funcHasShutdownEdge checks fn's body and everything reachable from it.
func funcHasShutdownEdge(pass *analysis.Pass, graph *callgraph.Graph, fn *types.Func) bool {
	for reached := range graph.Reachable([]*types.Func{fn}) {
		decl := graph.Decl(reached)
		if decl != nil && decl.Body != nil && bodyHasShutdownEdge(pass, decl.Body) {
			return true
		}
	}
	return false
}

// litHasShutdownEdge checks the literal's own body plus every
// same-package function the literal references.
func litHasShutdownEdge(pass *analysis.Pass, graph *callgraph.Graph, lit *ast.FuncLit) bool {
	if bodyHasShutdownEdge(pass, lit.Body) {
		return true
	}
	var roots []*types.Func
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() == pass.Pkg {
			roots = append(roots, fn)
		}
		return true
	})
	for reached := range graph.Reachable(roots) {
		decl := graph.Decl(reached)
		if decl != nil && decl.Body != nil && bodyHasShutdownEdge(pass, decl.Body) {
			return true
		}
	}
	return false
}

// bodyHasShutdownEdge scans one function body for accepted evidence.
func bodyHasShutdownEdge(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			// v, ok := <-ch
			if len(s.Lhs) == 2 && len(s.Rhs) == 1 {
				if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					found = true
				}
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok &&
					fn.FullName() == "(*sync.WaitGroup).Done" {
					found = true
				}
			}
		case *ast.SelectStmt:
			for _, clause := range s.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm == nil || !isReceive(cc.Comm) {
					continue
				}
				for _, st := range cc.Body {
					if containsReturn(st) {
						found = true
						break
					}
				}
			}
		}
		return !found
	})
	return found
}

// isReceive reports whether a select comm clause is a channel receive.
func isReceive(comm ast.Stmt) bool {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := s.Rhs[0].(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

func containsReturn(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.FuncLit:
			return false // a return inside a nested closure is not ours
		}
		return !found
	})
	return found
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
