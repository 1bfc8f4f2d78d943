// Package core implements the paper's primary contribution: the
// heuristic scheduling algorithm of Section 3.1 and the prio
// prioritization pipeline built on it.
//
// # Pipeline
//
// Prioritize / PrioritizeOpts run the three phases over a dag.Frozen
// (the immutable CSR core every layer shares; see package dag):
//
//   - Divide (delegated to package decompose): remove shortcut arcs,
//     peel the dag into components, build the superdag.
//   - Recurse (scheduleComponents): give every component a schedule —
//     the explicit IC-optimal source order when package bipartite
//     recognizes a Fig. 2 family, otherwise the valid
//     greatest-outdegree-first order — and compute its eligibility
//     profile E(x).
//   - Combine (combineOrder): consume the superdag greedily, always
//     picking a source component whose minimum r-priority over the
//     other current sources is largest (Steps 4-6). Profiles are
//     interned in a profileTable whose pairwise-priority matrix is
//     dense and bitset-backed, and the current sources are ranked in
//     the B-tree priority queue of Section 3.5. The quadratic design it
//     replaced survives only as a test oracle (combineNaive in
//     combine_oracle_test.go), which BenchmarkAblationCombine times
//     against it.
//
// The final Schedule lists per-component orders in Combine order
// followed by every dag sink, with Priority[v] = NumNodes - Rank[v]
// matching Condor's larger-runs-first convention.
//
// The package also provides the FIFO reference schedule, eligibility
// traces E(t) and trace differences (Fig. 4), per-job priority
// explanations, and the idealized Section 2.2 algorithm
// (TheoreticalSchedule) with its honest failure modes.
//
// # Parallelism and memoization
//
// Options has exactly two fields, Parallel and Cache, and neither
// changes a schedule bit.
// The Recurse phase is embarrassingly parallel across components, and
// Options.Parallel > 1 fans it — together with the pairwise r-priority
// matrix fill — out over a bounded worker pool. Results are merged in
// component-index order and profile interning stays sequential, so the
// parallel output is bit-identical to the sequential reference (the
// differential tests in parallel_test.go enforce this on every paper
// workload and on random dags). Options.Parallel <= 1 keeps the
// strictly sequential reference path.
//
// Options.Cache supplies a Cache that memoizes component schedules by
// exact structural signature and transitive reductions by graph
// fingerprint, within a run and across runs.
//
// # Concurrency contract
//
// Safe for concurrent use: Cache (shared freely across goroutines and
// PrioritizeOpts calls), and every pure function (PriorityR,
// EligibilityTrace, FIFOSchedule, ...) on distinct arguments.
// PrioritizeOpts itself may be called from many goroutines at once,
// with or without a shared Cache; the worker pool it spawns is
// internal. Not safe for concurrent use: profileTable (confined to one
// pipeline invocation; the parallel matrix fill partitions it by row)
// and a returned *Schedule, which is plain data — share it read-only.
// A *dag.Frozen passed to this package is immutable by construction,
// so the pipeline never copies or locks the graph it analyzes.
package core
