package lint

import (
	"go/ast"
)

// GoroutineLife enforces a termination path on long-running
// goroutines: a `go` statement whose body loops forever (`for { ... }`
// with no condition) must have a way out of the loop — a `return`
// reached from a ctx.Done()/stop-channel select case, a `break`, or a
// terminating call. Without one, the goroutine outlives its owner:
// Shutdown can't reclaim it, soak runs count it as a leak, and the
// timer/flusher it drives keeps firing into torn-down state. This is
// the fault-churn driver's shape — every background loop in the tree pairs
// with a Stop/Drain/ctx that closes it.
//
// One-shot goroutines (fire a delivery, post a result, exit) loop
// nowhere and are not flagged. `for range ch` is not flagged either:
// closing the channel ends it. The check resolves named functions
// through the call graph, so `go s.run()` is inspected as if the loop
// were written inline.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "a goroutine looping forever needs an exit path (ctx.Done()/stop channel case that returns, break, or terminating call)",
	Run:  runGoroutineLife,
}

func runGoroutineLife(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				if hasUnexitableLoop(lit.Body) {
					pass.Reportf(g.Pos(), "goroutine loops forever with no exit path: add a ctx.Done()/stop-channel case that returns so Shutdown can reclaim it")
				}
			} else if cs := pass.Prog.calleeSummary(pass.TypesInfo, g.Call); cs != nil && cs.UnexitableLoop {
				pass.Reportf(g.Pos(), "goroutine %s loops forever with no exit path: add a ctx.Done()/stop-channel case that returns so Shutdown can reclaim it",
					funcDisplayName(cs.Func))
			}
			return true
		})
	}
	return nil
}
