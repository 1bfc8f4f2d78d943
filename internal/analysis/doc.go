// Package analysis hosts priolint, the static-analysis suite that
// mechanically enforces the scheduler's determinism and concurrency
// invariants. It is a minimal re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) on top of the standard library's go/ast and go/types —
// the build environment has no module proxy access, so x/tools cannot
// be vendored; if it ever becomes available the analyzers port over by
// changing one import line. Packages are loaded through `go list
// -export` exactly the way a `go vet` driver does (see subpackage
// load), and each analyzer ships an analysistest-style suite with
// `// want "regexp"` expectations (see subpackage analysistest).
//
// Two interprocedural mechanisms extend the per-package shape:
//
//   - Facts (subpackage facts): per-object conclusions shared across
//     passes. The driver analyzes packages in dependency order with one
//     fact store, so an Impure fact exported on a helper deep in one
//     package surfaces, chain attached, at the annotated entry point of
//     another. The store bridges the two identities an object has —
//     type-checked from source in its own pass, re-read from gc export
//     data in its importers' passes.
//   - The whole-program call graph (subpackage callgraph): an Analyzer
//     may set RunProgram instead of Run and receive every loaded
//     package plus a call graph with static edges, conservative
//     interface edges (a method call through an interface fans out to
//     every loaded implementation), function-value edges, and function
//     literals as first-class nodes. Precision therefore depends on
//     what is loaded: run priolint over ./... for the whole-program
//     analyzers to prove rather than spot-check.
//
// # Why a linter instead of review discipline
//
// The advertised contract of the scheduling pipeline is that the
// schedule is a deterministic function of the DAG: the parallel,
// memoized pipeline is bit-identical to the sequential reference, and
// simulator runs replay exactly given a seed. The paper's evaluation
// compares PRIO against DAGMan's arbitrary order, so any hidden
// nondeterminism in our pipeline would silently invalidate reproduced
// numbers. These invariants are global properties that one more code
// review can quietly lose; the analyzers below make them mechanical.
//
// # The invariants and their annotations
//
// Determinism (analyzer mapiterorder). Go map iteration order is
// deliberately randomized, so a `for range` over a map must not have an
// order-dependent effect: appending to a slice that is not subsequently
// sorted, writing to an io.Writer / strings.Builder / file, or sending
// on a channel. The blessed idiom is to collect the keys, sort them,
// and range over the sorted slice — the analyzer recognizes a sort of
// the accumulated slice later in the same function (any callee whose
// name contains "sort" taking the slice as an argument) and stays
// quiet. Order-independent bodies (counting, building another map,
// reductions like min/max over values) are never flagged.
//
// Lock discipline (analyzer lockedfield). A struct field that is shared
// by the parallel pipeline carries a declaration-site annotation naming
// the mutex that guards it:
//
//	type Cache struct {
//		mu      sync.RWMutex
//		entries map[string]*cacheEntry // guarded by mu
//	}
//
// Every selector access to an annotated field must occur in a function
// that (a) locks that mutex (calls <anything>.mu.Lock or .RLock
// somewhere in its body, including an enclosing function of a literal),
// (b) is named with the conventional "...Locked" suffix meaning the
// caller holds the lock, or (c) is a constructor — a receiver-less
// function returning the struct type, where the value is not yet
// shared. Composite-literal initialization is inherently exempt (it is
// not a selector access). The check is lexical, not a may-happen-in-
// parallel analysis: it enforces the documentation convention, which is
// exactly what reviews kept getting wrong.
//
// RNG policy (analyzer rngsource). Simulator runs must be replayable:
// all randomness flows from repro/internal/rng sources seeded by the
// experiment driver. The process-global math/rand functions (rand.Intn,
// rand.Shuffle, rand.Seed, ...) are forbidden everywhere outside
// internal/rng, in tests too — constructing a private generator with
// rand.New(rand.NewSource(seed)) remains allowed as long as the seed
// does not come from time.Now, which the analyzer flags in any seeding
// expression (math/rand, math/rand/v2, or rng.New).
//
// Zero allocation (analyzer noalloc). The replication kernel's benchmark
// headline — zero allocations per steady-state replication — is a
// whole-call-tree property, so a function annotated
//
//	//prio:noalloc
//	func (r *Runner) Run(p Params, pol Policy, seed uint64) Metrics
//
// must not reach an allocation site (make, new, growing append,
// composite literals, string concatenation, interface boxing, closure
// capture, go statements) through any path in the program call graph.
// The steady-state idioms the kernel is built from are exempt by rule:
// make under a cap/len guard, self-append `x = append(x, ...)`
// (high-water-mark growth), allocations on cold paths (panic arguments
// and conditional blocks ending in panic or a non-nil error return),
// and callees unreachable because a literal nil was passed for the
// parameter they are invoked through (Runner.Run passes obs = nil, so
// the Observer fan-out is pruned). Diagnostics carry the offending call
// path ("replicate → drainBurst → append").
//
// Purity (analyzer purity). A function annotated //prio:pure — the
// Prioritize entry points of core, and the exported surface of
// decompose, icopt, and matching — must be a mathematical function:
// no package-level writes, no clock reads, no global rand, no I/O,
// transitively through every statically resolvable call in any loaded
// package (facts carry the verdicts across package boundaries). Calls
// through interfaces and function values are assumed pure and the
// differential tests remain the backstop for that assumption.
//
// Lock nesting (analyzer nestedlock). Every sync.Mutex/RWMutex
// acquisition is collected into per-function summaries; the analyzer
// reports re-acquiring a mutex already held on the same path (directly
// or through a call chain — self-deadlock) and any cycle in the
// whole-program lock-ordering graph, i.e. two locks acquired in
// opposite nesting orders on different paths.
//
// Error propagation (analyzer errpropagation). A swallowed error in the
// DAGMan parse or file-rewrite paths corrupts a user's submit files
// silently. Calls whose final result is an error must not be used as
// statements or assigned to blank when the callee is (a) any function
// of repro/internal/dagman, (b) any function of package os, or (c) a
// method named Close, Flush, or Sync. `defer f.Close()` is exempt:
// flagging every deferred close of a read-only file would drown the
// signal, and the write paths all sync through os.WriteFile, which is
// covered.
//
// # The serving-layer proofs
//
// The four analyzers below extend the suite from kernel purity to
// service safety: they walk the whole-program call graph from every
// HTTP handler (or from an annotated response path) and prove the
// daemon properties the load generator and differential tests can only
// sample. The shared reachability layer is subpackage reach: roots are
// all non-test functions shaped func(http.ResponseWriter,
// *http.Request), traversal follows static and interface edges
// (skipping _test.go implementations — test doubles never serve daemon
// traffic), and dynamic edges are compensated for by rooting at every
// handler-shaped function.
//
// Goroutine lifecycle (analyzer goroleak). Every `go` statement in
// non-test code must launch a function literal whose termination the
// enclosing declaration proves lexically: a sync.WaitGroup Done in the
// goroutine with a matching Wait outside it, a final send on a
// buffered channel the launcher makes (non-zero capacity) and receives
// from, or a select on ctx.Done / a channel the launcher closes.
// Named-function launches are always flagged — wrap them in a literal
// carrying one of the joins. This turned the load generator's leaked
// `go srv.Serve(ln)` into a compile gate instead of a slow RSS climb.
//
// Context flow (analyzer ctxflow). On every function reachable from a
// handler, context.Background and context.TODO (which detach work from
// client cancellation and pin admission slots past the client's
// departure) and time.Sleep (which blocks without a cancellation case)
// are banned. Waiting on a handler path must be a select with
// ctx.Done, the shape internal/serve/admission.go models.
//
// Bounded channels (analyzer chanbound). Every channel send reachable
// from a handler must be inside a select with a default or timeout
// case (time.After, Timer/Ticker .C, ctx.Done), or on a channel whose
// every non-test make site passes an explicit non-zero capacity. A
// send that can block unboundedly while holding an admission slot
// turns backpressure into deadlock; this pins the admission layer's
// construction.
//
// Response determinism (analyzer respdet). A function annotated
//
//	//prio:deterministic
//	func (s *Server) handlePrioritize(w http.ResponseWriter, r *http.Request)
//
// must produce output that is a function of its input alone: nothing
// reachable from it may read the clock (time.Now/Since/Until), draw
// from the process-global math/rand source (explicitly seeded *Rand
// values stay legal), touch process or filesystem state (os, os/exec,
// syscall — this keeps /proc reads off the response path), observe the
// runtime (ReadMemStats, NumGoroutine), or range over a map in an
// order-dependent way (the mapiterorder discipline, applied
// transitively: collect-then-sort, keyed writes, and integer
// accumulation are fine; float accumulation, early returns, and
// escaping writes are not). The /v1/prioritize handler carries the
// annotation; /metrics deliberately does not — it reports clocks and
// gauges by design, and its exemption is the absence of the contract
// (see docs/OPERATIONS.md).
//
// # The compiler-fact proofs
//
// The analyzers above prove properties of the source as the tree
// reasons about it. The two analyzers below prove properties of the
// machine code the compiler actually emits, by running the Go compiler
// itself as a fact oracle (subpackage compilerfact): one instrumented
// `go build -gcflags='-m=2 -d=ssa/check_bce'` over the loaded tree,
// parsed into position-keyed facts — bounds checks the SSA pass could
// not eliminate, and inlining decisions with costs and reasons. The
// driver runs the compiler at most once per invocation and shares the
// facts across both. Absence of a fact record for an annotated
// function is itself a finding ("the contract is unproved"), never
// silence — an annotation in a file the build did not compile must not
// pass vacuously.
//
// Bounds-check elimination (analyzer bce). A function annotated
// //prio:nobce — the replication kernel inner loops and the bitset
// hot methods — must compile with zero bounds checks: the masked-index
// and capacity-pinning idioms the kernel uses exist precisely so the
// SSA prover can discharge every access, and this analyzer pins that
// outcome to the compiler's own `Found IsInBounds` output rather than
// to a code-review reading of the masks.
//
// Inlining (analyzer inline). A function annotated //prio:inline must
// (a) be inlinable at all (cost within the compiler budget, no
// inlining-hostile constructs), and (b) actually be inlined at every
// call site lexically inside a //prio:nobce or //prio:noalloc
// function — a call left outstanding on the hot path costs a frame
// setup per event. Diagnostics carry the compiler's cost and reason
// ("cost 92 exceeds budget 80") so the fix is mechanical.
//
// Pragma hygiene (analyzer pragmacheck). Every contract above is
// opt-in via a //prio: doc-comment pragma, which creates a failure
// mode no analyzer of the contract itself can see: a typo'd pragma
// (//prio:noaloc), trailing prose (//prio:noalloc on the hot path), a
// retired pragma whose analyzer is gone, or a pragma on a type or var
// declaration reads like a contract and enforces nothing. pragmacheck
// closes the loop by flagging any //prio: comment that is not exactly
// a recognized pragma in the doc position of a function declaration.
//
// # The contract census
//
// An analyzer that matches nothing on the real tree passes exactly
// like one that proves something. TestContractCensus in cmd/priolint
// keeps the suite honest: every recognized pragma must annotate at
// least one non-test function, the sites the documentation names
// (core.Prioritize, sim.(*Runner).Run, serve.(*Server).handlePrioritize)
// must carry their pragmas, and every analyzer without a pragma must
// show a non-empty scope on the tree — a "// guarded by" field for
// lockedfield, a go statement for goroleak, an HTTP handler for ctxflow
// and chanbound. A new analyzer with no binding site fails the test
// until it gets one.
//
// # Running
//
//	go run ./cmd/priolint ./...        # what make check and CI run
//	go run ./cmd/priolint -only mapiterorder,rngsource ./internal/sim
//	go run ./cmd/priolint -format json ./...   # machine-readable findings
//	go run ./cmd/priolint -debug-callgraph ./internal/sim  # dump call edges
//
// The suite must stay clean at merge: fix the violation (or restructure
// so the invariant is evident to the analyzer) rather than suppressing
// it. There is deliberately no nolint comment mechanism.
package analysis
