// Package analysis hosts priolint, the static-analysis suite that
// mechanically enforces the scheduler's invariants that its runtime
// tests cannot see. It is a minimal re-implementation of the
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
// schedule is a deterministic function of the DAG: the memoized
// pipeline is bit-identical to the uncached one, and
// simulator runs replay exactly given a seed. The paper's evaluation
// compares PRIO against DAGMan's arbitrary order, so any hidden
// nondeterminism in our pipeline would silently invalidate reproduced
// numbers. These invariants are global properties that one more code
// review can quietly lose; the analyzers below make them mechanical.
// An analyzer stays only while it catches something no runtime test
// does: where the goldens, the determinism tests or the race detector
// catch every violation an analyzer targeted, the analyzer was deleted
// (the census sections below).
//
// # The invariants and their annotations
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
// # The serving layer is tested, not proved
//
// Four whole-program analyzers (goroleak, ctxflow, chanbound, respdet)
// and their handler-reachability layer used to guard the daemon's
// goroutine joins, client cancellation, bounded channel sends and
// response determinism, with a //prio:deterministic pragma on the
// /v1/prioritize handler. They were deleted after a mutation census:
// each violation they existed to catch was injected into a scratch copy
// and go test ./... (or make check-race) was run without priolint.
// Every row goes red in the runtime tests that replaced them; the time
// is how long the first red test took:
//
//	mutation                                         red test
//	drop wg.Wait: sim engine, prio runParallel,      each package's output tests (engine golden,
//	  prioload drive                                 TestRunMultipleFilesPartialFailure, TestLoadOutputFormat)
//	leaked goroutine at each of the 5 go statements  the package's join check (5 s): TestCompareGridResumeJoins,
//	                                                 TestRunMultipleFilesParallel, TestDaemonServesAndShutsDown,
//	                                                 TestRunJoinsGoroutines (serve and client goroutines)
//	acquire(context.Background()) in instrument      TestQueuedRequestCanceled (2 s)
//	no ctx.Done case in acquire's queue wait         TestQueuedRequestCanceled (2 s)
//	time.Sleep(QueueTimeout) in handlePrioritize     TestQueuedRequestCanceled (5 s)
//	any of acquire's three selects as a bare send    TestQueueFullImmediate429, TestDeadlineShed429,
//	                                                 TestQueuedRequestCanceled (5 s, naming the stage)
//	clock read, map-ordered field, NumGoroutine or   TestPrioritizeResponseDeterministic (2 s);
//	  /proc/self/statm read in the JSON response     the fuzz seeds also catch all but NumGoroutine
//	self-deadlock in Cache.store, tenantCaches.get   binary timeout; TestQueuedRequestCanceled for get
//
// Before those tests existed, ctxflow was the only guard against the
// detached context and nothing caught the missing ctx.Done case. The
// census also showed the analyzers misjudging real code: goroleak
// passed the unbuffered panics channel, which blocks a panicking worker
// forever, and flagged priod's errc made unbuffered, which is not a
// leak because run always receives; chanbound passed all three bare
// sends, because both admission channels are made with non-zero
// capacity and it accepted any send on such a channel.
//
// Lock nesting keeps its analyzer. A lock-order cycle between
// latencyWindow.mu and tenantCaches.mu, injected the same way, leaves
// go test ./... and make check-race green — it deadlocks only when the
// two paths interleave — and only nestedlock goes red. That mutation is
// the reason nestedlock, and with it callgraph, RunProgram and
// -debug-callgraph, stays; CI's nestedlockclean probe pins it.
//
// # Map order, seeds and guarded fields are tested, not proved
//
// Three more analyzers guarded the replay contract: rngsource (no
// process-global math/rand, no generator seeded from time.Now),
// mapiterorder (no order-dependent effect inside a range over a map)
// and lockedfield (a field commented "// guarded by mu" is touched only
// where mu is held). They were deleted after the same census: at each
// site TestContractCensus counted for them (4 generator seeds, 15 map
// ranges, 11 guarded fields), the violation was injected into a copy
// without the analyzer, and go test ./... ("test" below) was run, or
// go test -race as make check-race runs it ("race") for the lock rows.
// Every red map-order and lock row was then run 20 more times, each
// lock row as 20 processes since the race detector reports a race once
// per process, and failed all 20.
//
//	site                              mutation                 red test (gate)
//	rng.Source.Split                  seed from time.Now or    TestEngineMatchesPreEngineGolden and 9 more in
//	                                  from global rand         sim and cmd/simgrid (test)
//	cmd/dagsim run                    same                     TestRunDeterministic (test)
//	sim.CompareGridResume             same                     TestEngineMatchesPreEngineGolden and 9 more (test)
//	sim.NewRunner                     same                     none: neutral, Run reseeds before any draw
//	sim.Runner.Run's Reseed(seed)     reseed from time.Now     TestRunnerMatchesRun, the engine golden (test)
//	sim.Random.Next's src.Intn        global rand.Intn         TestRandomPolicyAssignsAllJobs, the golden (test)
//	load.ExportImporterFor            drop the sort            none: neutral, go list's output lands in a map
//	compilerfact.Run (f.Bounds)       key to os.Stderr         none: outside the contract (below)
//	compilerfact.InlinedAt            -                        deleted: it had no caller outside a test
//	compilerfact.InlinedCallsOn       drop the sort            none: neutral, inline only tests membership
//	analysistest.runOne               drop the sort            none: orders a failing fixture's messages only
//	nestedlock.run, order edges       drop successor sort      TestNestedLockCycleChoiceDeterministic (test)
//	nestedlock.run, lock list         drop the sort            none: neutral, a cycle is reported from its
//	                                                           smallest lock whatever the start order
//	nestedlock.acquiresOf (union)     key to os.Stderr         none: outside the contract
//	pragmacheck.knownList             drop the sort            TestKnownListSorted (test)
//	icopt.AdmitsICOptimalSchedule     key to os.Stderr         purity in make lint: it is //prio:pure
//	core.TheoreticalSchedule          key to os.Stderr         none: outside the contract
//	dagman.File.Instrument            drop the sort            TestInstrumentUnknownJobAppended (test)
//	rank.Components                   drop the sort            TestRegistries (test)
//	serve.tenantCaches.get            drop the sort            none: neutral, lastUse is unique, so the
//	                                                           least-recently-used tenant is order-free
//	serve.tenantCaches.snapshot       key to os.Stderr         none: outside the contract
//	dag.ReduceCache, entries read     drop Lock/Unlock         TestTransitiveReductionCachedConcurrent (race)
//	dag.ReduceCache, entries write    drop Lock/Unlock         TestTransitiveReductionCachedConcurrent (race)
//	core.Cache.Stats (entries)        drop RLock/RUnlock       TestCacheStatsWhileStoring (race)
//	core.Cache.lookup (entries)       drop RLock/RUnlock       TestCacheConcurrentPrioritize (race)
//	core.Cache.store (entries)        drop Lock/Unlock         TestCacheConcurrentPrioritize (race)
//	serve.latencyWindow.observe       drop Lock/Unlock         TestPrioritizeResponseDeterministic (race)
//	  (samples, next, count, sum, max)
//	serve.latencyWindow.snapshot      drop Lock/Unlock         TestPrioritizeResponseDeterministic (race)
//	serve.tenantCaches.get (clock,    drop Lock/Unlock         TestTenantSnapshotWhileGetting (race)
//	  entries, cache, lastUse)
//	serve.tenantCaches.snapshot       drop Lock/Unlock         TestTenantSnapshotWhileGetting (race)
//
// Before the census, six of these were not red on every run, and the
// analyzer was their only sure guard: the dropped successor sort in
// nestedlock, whose reported cycle then depends on map order; the
// dropped sorts in knownList, Instrument and Components, which the old
// tests caught in some runs or none; and the unlocked Cache.Stats and
// tenantCaches.snapshot, which no test ran beside a writer. Each got
// the narrowest test that fails on every run: a fixture or call
// repeated until a chance pass is out of reach, or two goroutines that
// share nothing but the lock's owner. Outside the contract: five ranges have
// order-independent bodies (a per-value sort, a set union, an
// existential test, integer sums) and no output of their own, so the
// only order-dependent effect they admit is a new write, injected as a
// line on the process's stderr. The replay contract covers schedules,
// instrumented files, simulator metrics and tables, priolint's findings
// and priod's responses; stderr carries timings and logs.
//
// # Error propagation keeps its analyzer
//
// errpropagation was scored the same way: each of the 83 calls
// TestContractCensus counted had its error replaced by nil (the value
// kept, the error dropped), and go test ./... was run. Ten are
// deferred calls, exempt by rule. These 18 go red, and so does the
// 84th, cli.LoadDag's Flatten, added with the census:
//
//	cli.LoadDag: Flatten                              TestLoadDagSplice
//	cmd/prio prioritizeFile: ParseFile, Graph         TestRunErrors
//	cmd/prio prioritizeFile: WriteInstrumented        TestRunFailedWriteLeavesInputs
//	cmd/prio instrumentSubmitFiles: ParseSubmitFile   TestRunErrors
//	cli.LoadDag: ParseFile, Graph                     TestLoadDagErrors
//	dagman Parse, ParseFile: parseFrom                TestParseErrors; TestRunErrors
//	dagman parseFrom: parse; parse: addLine           TestParseErrors
//	dagman addLine: parseSplice                       TestSpliceParseErrors
//	dagman WriteInstrumented: instrument              TestWriteInstrumentedMatchesInstrumentIDs
//	dagman instrument: the second copySpan            TestWriteInstrumentedMatchesInstrumentIDs
//	dagman Flatten, flatten: flatten; flatten: Graph  TestFlattenCycleDetected, TestFlattenCyclicInnerDag
//	serve readDag: Parse, Graph                       TestPrioritizeErrorPaths
//
// These 45 go red nowhere; errpropagation flags each, and they are the
// mutations only it catches:
//
//	cmd/prio replaceFile        os.Stat, os.CreateTemp, Sync, Close, os.Rename, os.Remove
//	cmd/prio createFile         os.OpenFile, Close
//	cmd/prio sameFile, run      os.Stat twice; os.WriteFile
//	cmd/benchjson               os.Open in assertNsTrend, assertAllocsBaseline and run; os.Create
//	cmd/priolint relPath        os.Getwd
//	cmd/prioload run, drive     Close of the server and of a response body
//	examples/dagmanfile main    os.MkdirTemp, os.WriteFile (4), dagman.ParseFile,
//	                            dagman.ParseSubmitFile, os.ReadFile (2)
//	examples/quickstart main    dagman.Parse, dagman.ParseSubmit
//	analysis load, compilerfact os.Open; os.MkdirTemp, os.Getwd; os.ReadDir in analysistest
//	dagman                      ParseFile's os.Open, instrument's first copySpan, FromGraph's
//	                            Parse, flatten's Parse, LoadSplice's ParseFile,
//	                            ParseSubmitFile's os.Open and ParseSubmit
//	serve readRSS               os.ReadFile
//	sim manifest                OpenManifest's os.OpenFile and Close, init's os.ReadFile,
//	                            GridManifest.Close's Close
//
// The remaining 10 go red nowhere and errpropagation does not flag them
// either, because it watches a method only when it is named Close,
// Flush or Sync: cmd/prio prioritizeFile's Flatten, the Graph calls of
// the two examples, dagman instrumented's instrument, ParseFile's Stat,
// replaceFile's Chmod, and the sim manifest's Truncate, Seek and two
// Writes. They have no guard.
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
// call site lexically inside a //prio:nobce function — a call left
// outstanding on the hot path costs a frame setup per event. Diagnostics carry the compiler's cost and reason
// ("cost 92 exceeds budget 80") so the fix is mechanical.
//
// Pragma hygiene (analyzer pragmacheck). Every contract above is
// opt-in via a //prio: doc-comment pragma, which creates a failure
// mode no analyzer of the contract itself can see: a typo'd pragma
// (//prio:nobec), trailing prose (//prio:nobce on the hot path), a
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
// least one non-test function, the site the documentation names
// (core.Prioritize) must carry its pragma, and every analyzer without a
// pragma must show a non-empty scope on the tree — a mutex
// acquisition for nestedlock, an error-returning call into dagman or os
// for errpropagation. A new analyzer with no binding site fails the
// test until it gets one.
//
// # Zero allocation is measured, not proved
//
// The replication kernel's headline — zero heap allocations per
// steady-state replication — used to have a static prover here, the
// noalloc analyzer, over 36 //prio:noalloc sites. It was deleted
// because the runtime tests catch every allocation it caught and some
// it could not. The census that replaced it is TestRunKernelZeroAllocs
// in internal/sim: every drain regime crossed with every Policy
// implementation, each row required to read 0 allocations per replay
// of its seeds. A heap allocation injected at each site in a scratch
// copy goes red in go test ./... as follows:
//
//	injection site                              red test
//	19 internal/dag accessors and sorts         TestNoallocSitesAllocateNothing
//	MinSet Reset, Add, PopMin                   TestMinSetResetReuses, TestRunKernelZeroAllocs
//	MinSet Len                                  TestMinSetResetReuses, TestRunKernelZeroAllocs (maxjobs rows)
//	rng Source Reseed, Uint64, Normal, Exp      TestRunKernelZeroAllocs (all 25 rows)
//	rng Source Intn                             TestRunKernelZeroAllocs (random rows)
//	Runner.Run, run, start, insert, nextOcc     TestRunKernelZeroAllocs (all 25 rows)
//	complete, drain, assignBatch (set mode)     TestRunKernelZeroAllocs (default prio/heft)
//	push, place, next, advance, cascade         TestRunKernelZeroAllocs (exact-mode rows)
//	cascade's relink, insert's overflow branch  TestRunKernelZeroAllocs (job-means-overflow rows)
//	Start/Eligible/Next of FIFO, Random,        TestRunKernelZeroAllocs (that policy's rows)
//	TwoLevel, and of Oblivious                  (Oblivious: its 8 exact-mode rows)
//	start truncating to events[:0:0]            TestRunKernelZeroAllocs (all 25 rows)
//
// Before the census, the injections in Random.Next, TwoLevel.Next,
// MinSet.Len, cascade's relink and insert's overflow branch left
// go test ./... green — the old pin ran only prio and fifo on default
// parameters — and noalloc was their only guard. The [:0:0] injection
// regrows the event arena on every run, the bug class the 0 B/op bench
// gate exists for, and noalloc passed it: self-appends were exempt by
// rule. The census also found an allocation noalloc could not see: an
// interface type assertion in Runner.Run's dispatch occasionally grew
// the runtime's per-call-site type cache on the heap, so the kernel now
// tests each policy's capability once per policy instance.
//
// # Running
//
//	go run ./cmd/priolint ./...        # what make check and CI run
//	go run ./cmd/priolint -only errpropagation,purity ./internal/dagman
//	go run ./cmd/priolint -format json ./...   # machine-readable findings
//	go run ./cmd/priolint -debug-callgraph ./internal/sim  # dump call edges
//
// The suite must stay clean at merge: fix the violation (or restructure
// so the invariant is evident to the analyzer) rather than suppressing
// it. There is deliberately no nolint comment mechanism.
package analysis
