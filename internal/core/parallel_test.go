package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/decompose"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// equalSchedules fails the test unless a and b are identical in every
// externally visible field — the "byte-identical" differential contract
// between the sequential reference pipeline and any tuned configuration.
func equalSchedules(t *testing.T, label string, a, b *Schedule) {
	t.Helper()
	if len(a.Order) != len(b.Order) {
		t.Fatalf("%s: order lengths %d vs %d", label, len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("%s: Order diverges at step %d: %d vs %d", label, i, a.Order[i], b.Order[i])
		}
	}
	for v := range a.Rank {
		if a.Rank[v] != b.Rank[v] || a.Priority[v] != b.Priority[v] {
			t.Fatalf("%s: Rank/Priority diverge at job %d", label, v)
		}
	}
	if len(a.ComponentOrder) != len(b.ComponentOrder) {
		t.Fatalf("%s: component order lengths differ", label)
	}
	for i := range a.ComponentOrder {
		if a.ComponentOrder[i] != b.ComponentOrder[i] {
			t.Fatalf("%s: ComponentOrder diverges at %d", label, i)
		}
	}
	for i := range a.Components {
		ca, cb := a.Components[i], b.Components[i]
		if ca.Family != cb.Family || ca.ProfileID != cb.ProfileID {
			t.Fatalf("%s: component %d family/profile diverge", label, i)
		}
		if len(ca.Order) != len(cb.Order) || len(ca.Profile) != len(cb.Profile) {
			t.Fatalf("%s: component %d schedule shapes diverge", label, i)
		}
		for j := range ca.Order {
			if ca.Order[j] != cb.Order[j] {
				t.Fatalf("%s: component %d order diverges at %d", label, i, j)
			}
		}
		for j := range ca.Profile {
			if ca.Profile[j] != cb.Profile[j] {
				t.Fatalf("%s: component %d profile diverges at %d", label, i, j)
			}
		}
	}
}

// tunedConfigs are the pipeline configurations that must reproduce the
// sequential, uncached reference exactly.
func tunedConfigs() []struct {
	name string
	opts func() Options
} {
	return []struct {
		name string
		opts func() Options
	}{
		{"parallel2", func() Options { return Options{Parallel: 2} }},
		{"parallel4", func() Options { return Options{Parallel: 4} }},
		{"parallelAllCPUs", func() Options { return Options{Parallel: -1} }},
		{"cache", func() Options { return Options{Cache: NewCache()} }},
		{"parallel4+cache", func() Options { return Options{Parallel: 4, Cache: NewCache()} }},
	}
}

// TestParallelMatchesSequentialWorkloads: the differential test of the
// parallel pipeline on every paper workload. The dags are scaled down
// to keep the suite fast; the structure (multi-component superdags,
// bipartite fast-path blocks, non-bipartite remnants) is preserved.
func TestParallelMatchesSequentialWorkloads(t *testing.T) {
	scales := map[string]int{"airsn": 1, "inspiral": 8, "montage": 9, "sdss": 40}
	for _, name := range workloads.Names() {
		g, err := workloads.ByName(name, scales[name])
		if err != nil {
			t.Fatal(err)
		}
		ref := Prioritize(g)
		for _, cfg := range tunedConfigs() {
			got := PrioritizeOpts(g, cfg.opts())
			equalSchedules(t, name+"/"+cfg.name, ref, got)
		}
	}
}

// TestParallelMatchesSequentialRandom: property test over random dags
// of varying density, including dags with shortcuts, many isolated
// jobs, and single-component blobs.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	r := rng.New(7)
	densities := []float64{0.005, 0.02, 0.08, 0.3}
	for trial := 0; trial < 40; trial++ {
		n := 20 + int(r.Uint64()%120)
		p := densities[trial%len(densities)]
		g := randomDag(r, n, p)
		ref := Prioritize(g)
		for _, cfg := range tunedConfigs() {
			got := PrioritizeOpts(g, cfg.opts())
			equalSchedules(t, fmt.Sprintf("random[%d,n=%d,p=%g]/%s", trial, n, p, cfg.name), ref, got)
		}
	}
}

// TestParallelSharedCacheAcrossCalls: one Cache shared by sequential
// and parallel runs over several dags stays coherent and keeps the
// output identical, and repeated runs hit.
func TestParallelSharedCacheAcrossCalls(t *testing.T) {
	cache := NewCache()
	g, err := workloads.ByName("sdss", 60)
	if err != nil {
		t.Fatal(err)
	}
	ref := Prioritize(g)
	first := PrioritizeOpts(g, Options{Parallel: 4, Cache: cache})
	equalSchedules(t, "sdss/first", ref, first)
	miss0 := cache.Stats().Misses
	if miss0 == 0 {
		t.Fatal("first run recorded no misses")
	}
	// SDSS is thousands of identical W chains: the cache must collapse
	// them to a handful of shapes even within a single run.
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("no intra-run hits on SDSS: %+v", st)
	}
	second := PrioritizeOpts(g, Options{Parallel: 4, Cache: cache})
	equalSchedules(t, "sdss/second", ref, second)
	if st := cache.Stats(); st.Misses != miss0 {
		t.Fatalf("second identical run missed the cache: %+v", st)
	}
}

// TestParallelConcurrentPrioritize: several goroutines sharing one
// Cache must each produce the reference schedule (exercised under
// -race by make check).
func TestParallelConcurrentPrioritize(t *testing.T) {
	cache := NewCache()
	g, err := workloads.ByName("inspiral", 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := Prioritize(g)
	type result struct{ s *Schedule }
	done := make(chan result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- result{PrioritizeOpts(g, Options{Parallel: 4, Cache: cache})}
		}()
	}
	for i := 0; i < 8; i++ {
		equalSchedules(t, fmt.Sprintf("concurrent[%d]", i), ref, (<-done).s)
	}
}

// TestParallelWorkersNormalization pins the Parallel encoding: 0 and 1
// are sequential, negatives mean all CPUs.
func TestParallelWorkersNormalization(t *testing.T) {
	if w := (Options{}).workers(); w != 1 {
		t.Fatalf("zero Options workers = %d, want 1", w)
	}
	if w := (Options{Parallel: 1}).workers(); w != 1 {
		t.Fatalf("Parallel=1 workers = %d, want 1", w)
	}
	if w := (Options{Parallel: 3}).workers(); w != 3 {
		t.Fatalf("Parallel=3 workers = %d, want 3", w)
	}
	if w := (Options{Parallel: -1}).workers(); w < 1 {
		t.Fatalf("Parallel=-1 workers = %d, want >= 1", w)
	}
}

// expectJoined polls until the goroutine count is back at baseline and
// fails if it is still above after 5 s: a launcher that returns before
// its goroutines finish, or whose goroutines block forever, leaves them
// behind.
func expectJoined(t *testing.T, what string, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutine(s) running", what, runtime.NumGoroutine()-baseline)
		}
	}
}

// TestParallelRecurseJoins: the parallel pipeline (Recurse workers and
// the Combine-phase matrix fill) joins every goroutine it starts before
// PrioritizeOpts returns.
func TestParallelRecurseJoins(t *testing.T) {
	g, err := workloads.ByName("inspiral", 16)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		PrioritizeOpts(g, Options{Parallel: 4, Cache: NewCache()})
	}
	expectJoined(t, "PrioritizeOpts with Parallel: 4", baseline)
}

// TestPrecomputeAllJoins: precomputeAll returns only after every cell
// of the pairwise matrix is filled, with the values PriorityR gives,
// and with no worker left running. The paper dags have at most six
// distinct profiles, so the table is synthetic: 120 random profiles.
func TestPrecomputeAllJoins(t *testing.T) {
	r := rng.New(11)
	pt := newProfileTable()
	for pt.numProfiles() < 120 {
		profile := make([]int, 8+r.Intn(32))
		for x := range profile {
			profile[x] = 1 + r.Intn(20)
		}
		pt.intern(profile)
	}
	n := pt.numProfiles()
	baseline := runtime.NumGoroutine()
	pt.precomputeAll(4)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !pt.rDone[i].Contains(j) {
				t.Fatalf("precomputeAll returned with cell (%d,%d) unfilled", i, j)
			}
			if got, want := pt.rVals[i][j], PriorityR(pt.profiles[i], pt.profiles[j]); got != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	expectJoined(t, "precomputeAll(4)", baseline)
}

// TestRecurseComponentPanicPropagates: an invalid component must panic
// on the caller's goroutine in the parallel path, exactly as the
// sequential path would, and every worker must exit even though all of
// them panicked.
func TestRecurseComponentPanicPropagates(t *testing.T) {
	// A cycle can no longer reach the Recurse phase (Freeze rejects it),
	// so a nil Sub stands in for "a buggy component": classifying it
	// panics, and the parallel path must re-raise that panic here.
	comps := make([]decompose.Component, 16)
	for i := range comps {
		comps[i] = decompose.Component{Index: i, Sub: nil, Orig: []int{0, 1}}
	}
	baseline := runtime.NumGoroutine()
	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		scheduleComponents(comps, 4, nil)
	}()
	select {
	case ok := <-panicked:
		if !ok {
			t.Fatal("no panic from invalid component in parallel path")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scheduleComponents did not return within 10s of its workers panicking: a worker is blocked reporting its panic")
	}
	expectJoined(t, "scheduleComponents after worker panics", baseline)
}
