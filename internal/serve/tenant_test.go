package serve

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestTenantEvictionDeterministic pins the LRU eviction order: seed a
// full namespace map with a known access history, trigger evictions,
// and check exactly the least-recently-used tenants disappear. The
// collect-then-sort scan in get() makes this evident; this test keeps
// it true under refactoring.
func TestTenantEvictionDeterministic(t *testing.T) {
	tc := newTenantCaches(3)
	has := func(name string) bool {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		_, ok := tc.entries[name]
		return ok
	}
	live := func() int {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return len(tc.entries)
	}

	for _, name := range []string{"a", "b", "c"} {
		tc.get(name)
	}
	tc.get("a") // history: b < c < a

	tc.get("d") // evicts b, the LRU
	if has("b") {
		t.Fatal("b should have been evicted as the LRU tenant")
	}
	for _, name := range []string{"a", "c", "d"} {
		if !has(name) {
			t.Fatalf("tenant %q missing after evicting b", name)
		}
	}

	tc.get("e") // now c is the LRU
	if has("c") {
		t.Fatal("c should have been evicted as the LRU tenant")
	}
	if live() != 3 {
		t.Fatalf("live tenants = %d, want 3", live())
	}
}

// TestTenantEvictionKeepsReaccessed: re-accessing a tenant must refresh
// its LRU position, and a cache handle returned by get stays valid for
// the same tenant until eviction.
func TestTenantEvictionKeepsReaccessed(t *testing.T) {
	tc := newTenantCaches(2)
	has := func(name string) bool {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		_, ok := tc.entries[name]
		return ok
	}

	first := tc.get("hot")
	tc.get("cold")
	if again := tc.get("hot"); again != first {
		t.Fatal("get returned a different cache for a live tenant")
	}
	tc.get("new") // cold is now the LRU
	if has("cold") {
		t.Fatal("cold should have been evicted")
	}
	if !has("hot") {
		t.Fatal("hot was re-accessed and must survive")
	}
}

// TestAppendJSONString is the unit-level regression for the bug
// FuzzPrioritizeRequest found: job names with invalid UTF-8 (legal in
// a DAGMan file) must still render as valid JSON, not as Go
// string-literal escapes like \xff.
func TestAppendJSONString(t *testing.T) {
	cases := []string{
		"plain",
		"",
		"\xff",                   // invalid UTF-8 — the fuzzer's crasher
		"a\xffb\xfe",             // embedded invalid bytes
		"quote\"back\\slash",     // JSON metacharacters
		"tab\tnl\ncr\rbel\a",     // control characters
		"\x1f\x7f\u0080",         // boundary: last control, DEL, U+0080
		"\u03c0\u2028\U0001F600", // multibyte, line separator, non-BMP
		"JOB a a.sub\nDONE b",    // realistic dag text
	}
	var buf []byte
	for _, in := range cases {
		buf = appendJSONString(buf[:0], in)
		var got string
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Errorf("appendJSONString(%q) = %s: not valid JSON: %v", in, buf, err)
			continue
		}
		std, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", in, err)
		}
		var want string
		if err := json.Unmarshal(std, &want); err != nil {
			t.Fatalf("round-tripping stdlib encoding of %q: %v", in, err)
		}
		if got != want {
			t.Errorf("appendJSONString(%q) decodes to %q, encoding/json round-trips to %q", in, got, want)
		}
	}
}

// TestTenantSnapshotWhileGetting: /metrics snapshots the tenant
// namespaces while requests create and touch them. The two goroutines
// share nothing but tc, so under -race (make check-race) a snapshot or
// get that skips tc.mu fails on every run, whatever the interleaving.
func TestTenantSnapshotWhileGetting(t *testing.T) {
	tc := newTenantCaches(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); tc.get("a") }()
	go func() { defer wg.Done(); tc.snapshot() }()
	wg.Wait()
	if s := tc.snapshot(); s.Tenants != 1 {
		t.Fatalf("Tenants = %d after one get, want 1", s.Tenants)
	}
}
