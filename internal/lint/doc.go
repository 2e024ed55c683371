// Package lint is ogsalint: a project-specific static-analysis suite
// that mechanically enforces the container invariants PRs 1–3 piled
// onto this codebase — pooled serializer buffers that must not escape,
// health-ledger locks that must never be held across a delivery RPC,
// contexts that must flow into retry.Do so Shutdown stays bounded,
// errors on delivery paths that must reach the SOAP-fault mapper or
// the health ledger, and XML that must go through xmlutil so escaping
// cannot be bypassed. The concurrency pack (atomicmix, goroutinelife,
// timerleak) extends the suite to the parallel core: mixed atomic/plain
// access, goroutines with no exit path, and leaked timers. Lock-bearing
// values copied by value are go vet's copylocks check (`make vet`).
//
// The package mirrors the shape of golang.org/x/tools/go/analysis (an
// Analyzer runs over one type-checked package via a Pass and reports
// Diagnostics) but is built purely on the standard library's go/ast,
// go/parser, and go/types, because this module carries no external
// dependencies. Type information for dependencies comes from compiler
// export data produced by `go list -export` (see load.go), the same
// mechanism the go command's own vet driver uses.
//
// Findings are suppressed with a staticcheck-style comment on the
// flagged line or the line above it:
//
//	//lint:ignore ogsalint/<name> reason
//
// The reason is mandatory; an ignore directive without one is itself
// reported. Suppression is handled here in the driver, so analyzers
// stay pure reporters.
//
// # Interprocedural summaries
//
// Analyzers are not limited to one function body. Every load is
// indexed into a Program (summary.go): an intra-module call graph
// built from types.Info.Uses, plus a per-function Summary of
// caller-visible behavior — whether the function (transitively)
// performs delivery I/O, its net mutex effects, whether it returns a
// pool-derived pointer, which parameters escape its frame, which
// results are Background-rooted contexts, and whether it loops with
// no exit path. Summaries are computed to a bounded fixed point
// (summaryRounds), with every fact monotone — set once, never
// cleared — so recursion and mutual cycles terminate with whatever
// was proven before the cutoff. In practice the bound gives at least
// three levels of helper transparency.
//
// # Writing an analyzer against summaries
//
// A Pass carries the whole-load Program in pass.Prog. The workflow at
// a call site is:
//
//  1. Resolve the callee's summary:
//
//     if s := pass.Prog.calleeSummary(pass.TypesInfo, call); s != nil {
//     // s describes everything the callee does that a caller
//     // can observe.
//     }
//
//     calleeSummary returns nil for stdlib and export-data-only
//     functions — only module functions have bodies to summarize.
//     Analyzers must treat nil as "no knowledge", not "no effect".
//
//  2. Consume coarse facts directly. s.Blocking carries a printable
//     call chain ("(*Sink).push → http.Client.Do") for diagnostics;
//     s.ReturnsPooled, s.UnexitableLoop, and s.FreshCtxResults[i] are
//     plain booleans keyed to the callee's signature.
//
//  3. Translate frame-relative facts into the caller's vocabulary.
//     Lock keys in s.LocksAtExit/UnlocksAtEntry are normalized to the
//     callee's frame ("recv.mu", "p0.mu", "g:<pkg>.mu"); use
//     translateLockKey to rewrite them in terms of the actual call
//     arguments ("srv.mu"). Parameter facts (s.ParamEscapes[i]) are
//     positional: map them through the call's argument list.
//
//  4. Keep the intraprocedural rule as the base case. Summaries only
//     extend an analyzer's reach; the direct pattern (a literal
//     pool.Get, a direct client.Do under a lock) must still be
//     recognized in-function, because the Program may be a single
//     package (fixtures, the unit-checker protocol) with no callers
//     loaded.
//
// New facts belong in Summary only if they are monotone (a fact, once
// true, stays true as more rounds run) and frame-local (expressible
// without caller state). Anything else breaks the fixed point's
// termination argument or leaks one caller's context into another's
// diagnosis.
package lint
