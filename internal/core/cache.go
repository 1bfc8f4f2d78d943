package core

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/dag"
)

// Cache memoizes the Recurse phase across components and invocations.
// Real workloads are built from a handful of repeated building blocks —
// SDSS is thousands of identical (s,3)-W chains, Montage a grid of
// near-identical difference fans — so the classification + IC-optimal
// (or outdegree) schedule + eligibility trace of each distinct shape
// only needs to be computed once. Entries are keyed by an exact
// canonical encoding of the component subgraph (node count plus the
// full adjacency over the component's dense indices), NOT by an
// isomorphism hash: two components hit the same entry only when their
// index-level structure is identical, so a cached schedule template is
// valid verbatim and the memoized pipeline is bit-identical to the
// uncached one.
//
// A Cache is safe for concurrent use, so concurrent PrioritizeOpts
// calls (priod's tenants) may share one. It also embeds a
// dag.ReduceCache so repeated prioritizations of the same graph share
// the Step 1 transitive reduction. Cached Order/Profile slices are shared between schedules
// and must be treated as immutable (the pipeline only reads them).
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry // guarded by mu
	reduce  *dag.ReduceCache
	hits    atomic.Int64
	misses  atomic.Int64
}

type cacheEntry struct {
	family  bipartite.Family
	order   []int // schedule over the component's Sub indices
	profile []int // eligibility profile of order on Sub
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits and Misses count component-schedule lookups.
	Hits, Misses int64
	// Entries is the number of distinct component shapes stored.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewCache returns an empty schedule cache.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[string]*cacheEntry),
		reduce:  dag.NewReduceCache(),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// ReduceCache returns the embedded transitive-reduction cache, for
// callers that also run pipeline stages outside PrioritizeOpts (e.g.
// prio -theoretical). A nil Cache has none and returns nil.
func (c *Cache) ReduceCache() *dag.ReduceCache {
	if c == nil {
		return nil
	}
	return c.reduce
}

// lookup returns the cached schedule template for the component whose
// signature is sig (see appendSignature). A hit allocates nothing: the
// map is probed with the bytes themselves.
func (c *Cache) lookup(sig []byte) (*cacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.entries[string(sig)]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// store records a freshly computed component schedule under sig. The
// entry owns copies of order and profile, so a long-lived cache never
// keeps one call's storage alive. Concurrent workers may race to store
// the same shape; the entries are identical by construction (the
// signature is exact), so last-write-wins is fine.
func (c *Cache) store(sig []byte, family bipartite.Family, order, profile []int) {
	e := &cacheEntry{family: family, order: slices.Clone(order), profile: slices.Clone(profile)}
	c.mu.Lock()
	c.entries[string(sig)] = e
	c.mu.Unlock()
}

// appendSignature appends to dst a canonical encoding of a component
// subgraph's structure: node count, each node's out-degree, then every
// child list over the dense Sub indices in node order, every number a
// uvarint. Node names are deliberately excluded — neither Classify nor
// the outdegree order reads them — so equally shaped components from
// different parts of the dag (or different dags) share an entry.
func appendSignature(dst []byte, sub *dag.Frozen) []byte {
	n := sub.NumNodes()
	childStart, arena := sub.ChildCSR()
	dst = binary.AppendUvarint(dst, uint64(n))
	for v := 0; v < n; v++ {
		dst = binary.AppendUvarint(dst, uint64(childStart[v+1]-childStart[v]))
	}
	for _, c := range arena[childStart[0]:childStart[n]] {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}
