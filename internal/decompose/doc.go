// Package decompose implements the Divide phase of the scheduling
// heuristic (Section 3.1, Steps 1-2): shortcut removal, the generalized
// decomposition of a dag into connected components C(s) grown from
// sources by the BFS-like closure of the paper, and the construction of
// the superdag that records how the components compose.
//
// # Algorithm
//
// Each round peels components off the remnant, mirroring the
// engineering of Section 3.5. The fast path detaches every maximal
// connected bipartite building block whose sources are sources of the
// remnant (for these, containment-minimality is automatic); it alone
// reduced the paper's SDSS decomposition from days to minutes. In a
// round where no such block exists, the general round detaches one
// containment-minimal closure C(s), the smallest (ties broken by the
// smallest source it holds).
//
// The general round does not compute C(s) source by source. C(s) is
// reachability from s under one rule: from any job, go to its alive
// parents, and also to its alive children when the job is a source of
// the remnant. The round condenses that relation into strongly
// connected components with one iterative Tarjan pass from the
// sources. The closures of the source-holding components that reach no
// other source-holding component are exactly the containment-minimal
// closures, and they are pairwise disjoint, so materialising all of
// them costs one pass over the region the sources reach. Every other
// closure contains one of them, so the smallest closure is among them.
// The per-source search it replaced stays in the tests as the oracle:
// TestFastPathMatchesGeneralPath and FuzzGeneralRound hold production
// to it round by round, and BenchmarkAblationFastPath times it as the
// pre-Section-3.5 design.
//
// Components are pointer-free windows over storage shared by the
// whole Result. Peeling records only which components each job belongs
// to (at most two: one that holds it as a sink it cannot yet detach,
// and the one that schedules it or defers it as a dag sink). When
// peeling ends, one pass lays out every component's members and
// local-index child CSR back to back, and a Component keeps only its
// offsets into them: Result.Nodes(i) returns its jobs, Result.Window(i)
// its CSR. Callers that walk many components freeze each window in turn
// into one reused dag.View, as the core package's Recurse phase does;
// Result.Sub(i) builds a named graph on demand. Both rounds run on
// reusable scratch, so decomposing a dag into tens of thousands of
// components costs a few hundred allocations in all, none per
// component, and no per-component header for the GC to scan.
//
// Step 1's transitive reduction can be memoized across pipeline stages
// by supplying Options.ReduceCache (see dag.ReduceCache); core.Options
// threads the cache embedded in a core.Cache through automatically.
//
// # Invariants
//
// The decomposition is deterministic: components are detached in a
// fixed order (fast-path blocks by smallest member, general closures by
// size then smallest source), Component.Index equals both the
// detachment position and the superdag node index, and Result.Nodes(i)
// is ascending. Every superdag arc points from an earlier-detached
// component to a later one, so the superdag is acyclic by construction.
// A job appears as a non-sink of at most one component
// (Result.ScheduledIn), and in at most two components in all: a
// closure takes in every alive parent of its sinks, so a sink left
// alive has no alive parent and is scheduled by the next component
// that reaches it. Dag-wide sinks have ScheduledIn == -1 and are
// executed in the pipeline's final phase.
//
// # Concurrency contract
//
// Decompose and DecomposeOpts are pure with respect to their input
// graph (it is read, never written) and may be called from many
// goroutines, including with a shared Options.ReduceCache, which is
// safe for concurrent use. A *Result and its Components are plain data
// produced by a single call: share them read-only; nothing in this
// package mutates them once Decompose returns.
package decompose
