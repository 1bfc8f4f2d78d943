// Package bipartite implements the building blocks of the scheduling
// theory (Section 2.2, Fig. 2): the bipartite dag families with known
// IC-optimal schedules — (s,t)-W-dags, (s,t)-M-dags, n-N-dags,
// n-Cycle-dags, and bipartite cliques — together with recognizers that
// classify an arbitrary connected bipartite dag into one of the
// families and produce its explicit IC-optimal source order.
//
// A "bipartite dag" here is the paper's two-level notion: the node set
// splits into sources U and sinks V with every arc running U -> V.
//
// # Role in the pipeline
//
// Classify is the heart of the Recurse phase (Section 3.1, Step 3): for
// each component the Divide phase detaches, a successful classification
// yields the family's provably IC-optimal schedule, and a failure sends
// the component to the outdegree fallback in package core. The NewW /
// NewM / NewN / NewCycle / NewClique constructors build family
// instances, and Compose glues blocks into composite dags for tests and
// the theory examples.
//
// # Invariants
//
// Classification is purely structural: node names never influence the
// result, and the returned SourceOrder is deterministic for a given
// indexed structure (path walks start from the smaller-indexed end,
// cycles from the smallest source). This is what makes component
// schedules cacheable by structural signature (core.Cache): two
// components with identical index-level adjacency get byte-identical
// classifications. A successful Classification's SourceOrder is a
// permutation of the graph's sources; executing it in order, followed
// by the sinks, is IC-optimal for the recognized family.
//
// # Concurrency contract
//
// The package holds no mutable state: Classify, Compose, and the
// constructors are pure functions and safe to call from many goroutines
// on distinct or shared (read-only) graphs. A Scratch holds one
// caller's working storage for Scratch.Classify and must not be shared
// between goroutines: the Recurse phase in package core reuses one
// across every component of a call.
package bipartite
