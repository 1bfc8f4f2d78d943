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
//     dense and bitset-backed, and the current sources are grouped by
//     profile, so each round scans the live groups rather than the
//     sources. That grouping, not the B-tree priority queue Section 3.5
//     names, is where this Combine's speed comes from: the paper dags
//     never have more than two groups live. The quadratic design it
//     replaced survives only as a test oracle (combineNaive in
//     combine_oracle_test.go), which BenchmarkAblationCombine times
//     against it.
//
// The final Schedule lists per-component orders in Combine order
// followed by every dag sink, with Priority[v] = NumNodes - Rank[v]
// matching Condor's larger-runs-first convention. Its Components are
// one value slice whose Order and Profile windows are cut from two
// per-call slabs, and the Recurse phase runs on one reused scratch, so
// one call allocates a few hundred times however many components the
// dag has (TestPrioritizeAllocsPerComponent pins this on SDSS).
//
// The package also provides the FIFO reference schedule, eligibility
// traces E(t) and trace differences (Fig. 4), per-job priority
// explanations, and the idealized Section 2.2 algorithm
// (TheoreticalSchedule) with its honest failure modes.
//
// # Memoization
//
// Options has one live field, Cache, and it changes no schedule bit.
// (Parallel survives only as an ignored, deprecated field: the pipeline
// is sequential. Its cost is paid once per workflow on the submit
// path, and fanning the Recurse phase out over a worker pool lost to
// the sequential loop on every paper dag.) Options.Cache supplies a
// Cache that memoizes component schedules by exact structural
// signature and transitive reductions by graph fingerprint, within a
// run and across runs; the differential tests in cache_test.go and
// FuzzSchedule hold the memoized output to the uncached one on every
// paper workload and on random dags.
//
// # Concurrency contract
//
// Safe for concurrent use: Cache (shared freely across goroutines and
// PrioritizeOpts calls), and every pure function (PriorityR,
// EligibilityTrace, FIFOSchedule, ...) on distinct arguments.
// PrioritizeOpts itself may be called from many goroutines at once,
// with or without a shared Cache, and starts no goroutines of its own.
// Not safe for concurrent use: profileTable (confined to one pipeline
// invocation) and a returned *Schedule, which is plain data — share it
// read-only. A *dag.Frozen passed to this package is immutable by
// construction, so the pipeline never copies or locks the graph it
// analyzes.
package core
