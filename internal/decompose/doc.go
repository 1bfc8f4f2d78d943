// Package decompose implements the Divide phase of the scheduling
// heuristic (Section 3.1, Steps 1-2): shortcut removal, the generalized
// decomposition of a dag into connected components C(s) grown from
// sources by the BFS-like closure of the paper, and the construction of
// the superdag that records how the components compose.
//
// # Algorithm
//
// Two decomposition paths are provided, mirroring the engineering of
// Section 3.5: a fast path that detaches every maximal connected
// bipartite building block whose sources are sources of the remnant
// (for these, containment-minimality is automatic), and a general path
// that computes the full closure C(s) for each source and detaches one
// containment-minimal component per round. The fast path alone reduced
// the paper's SDSS decomposition from days to minutes. Production
// always tries the fast path first and falls back to the general path
// in rounds where no bipartite block exists; only the tests force the
// general path for every round (through the unexported
// newDecomposer), to check that both detach the same components and to
// time the Section 3.5 ablation in BenchmarkAblationFastPath.
//
// Components are windows over storage shared by the whole Result.
// Peeling records only which components each job belongs to (at most
// two: one that holds it as a sink it cannot yet detach, and the one
// that schedules it or defers it as a dag sink). When peeling ends, one
// pass lays out every component's members, names and local-index child
// CSR back to back, and dag.FreezeBatch builds every Sub header into
// one slice over those arrays. The closure search runs on reusable
// scratch, so decomposing a dag into tens of thousands of components
// costs a few hundred allocations in all, none per component.
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
// detachment position and the superdag node index, and Component.Nodes
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
