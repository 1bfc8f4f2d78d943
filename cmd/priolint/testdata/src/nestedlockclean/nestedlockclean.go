// Package nestedlockclean is the anti-vacuousness fixture for the
// nestedlock analyzer, shaped like the daemon's metrics and tenant
// caches: get holds caches.mu while it records into a window, so the
// one nesting order in the package is caches.mu → window.mu, and
// priolint passes on this package as checked in. CI's "priolint
// catches injected lock-order cycle" step replaces the INJECT marker
// below with a call that takes caches.mu while window.mu is held and
// asserts priolint fails. No test catches that cycle — it deadlocks
// only when the two paths interleave — so nestedlock is its only
// guard. TestDriverInjectMarker pins the marker so the sed in
// .github/workflows/ci.yml cannot rot silently.
package nestedlockclean

import "sync"

type window struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type caches struct {
	mu      sync.Mutex
	w       *window
	entries map[string]int // guarded by mu
}

func (c *caches) get(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.observe()
	return c.entries[name]
}

func (c *caches) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (w *window) observe() {
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
}

func (w *window) snapshot(c *caches) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	// INJECT: opposite lock order goes here
	return w.n
}

var (
	_ = (*caches).get
	_ = (*caches).size
	_ = (*window).snapshot
)
