package serve

import (
	"sort"
	"sync"

	"repro/internal/core"
)

// tenantCaches is the per-tenant cache namespace layer: each tenant
// name maps to its own core.Cache (component schedules + transitive
// reductions), so repeated shapes within one tenant's workflows are
// memoized while tenants never observe each other's entries. The map is
// bounded: beyond max namespaces the least-recently-used tenant is
// evicted, which only costs that tenant its warm cache, never
// correctness (the memoized pipeline is bit-identical to the uncached
// one).
type tenantCaches struct {
	mu      sync.Mutex
	max     int
	clock   int64                   // guarded by mu (logical LRU time, unique per get)
	entries map[string]*tenantEntry // guarded by mu
}

type tenantEntry struct {
	cache   *core.Cache // guarded by tenantCaches.mu (the Cache has its own internal lock)
	lastUse int64       // guarded by tenantCaches.mu
}

func newTenantCaches(max int) *tenantCaches {
	return &tenantCaches{max: max, entries: make(map[string]*tenantEntry, max)}
}

// get returns tenant's cache namespace, creating it (and evicting the
// least-recently-used namespace when at capacity) as needed.
func (t *tenantCaches) get(tenant string) *core.Cache {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	if e, ok := t.entries[tenant]; ok {
		e.lastUse = t.clock
		return e.cache
	}
	if len(t.entries) >= t.max {
		// Evict the LRU entry over a sorted key list, not the raw map:
		// lastUse values are unique (the clock ticks on every get), so
		// the minimum never depends on iteration order — but scanning in
		// sorted order makes that evident (the collect-then-sort
		// discipline) and keeps eviction deterministic even if the
		// uniqueness invariant ever breaks.
		names := make([]string, 0, len(t.entries))
		for name := range t.entries {
			names = append(names, name)
		}
		sort.Strings(names)
		victim := ""
		oldest := int64(1<<63 - 1)
		for _, name := range names {
			if e := t.entries[name]; e.lastUse < oldest {
				oldest, victim = e.lastUse, name
			}
		}
		delete(t.entries, victim)
	}
	e := &tenantEntry{cache: core.NewCache(), lastUse: t.clock}
	t.entries[tenant] = e
	return e.cache
}

// snapshot aggregates cache-effectiveness counters across all live
// namespaces (summation is order-independent).
func (t *tenantCaches) snapshot() CacheSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := CacheSnapshot{Tenants: len(t.entries)}
	for _, e := range t.entries {
		cs := e.cache.Stats()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Entries += cs.Entries
	}
	if s.Hits+s.Misses > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	return s
}
