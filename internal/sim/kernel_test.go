package sim

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestRunnerMatchesRun pins the Runner's equivalence contract:
// Runner.Run(p, pol, seed) returns exactly Run(g, p, pol, rng.New(seed))
// even as the pooled state carries over between replications, across
// policies and the failure/rollover branches.
func TestRunnerMatchesRun(t *testing.T) {
	g := workloads.AIRSN(15)
	fail := DefaultParams(1, 8)
	fail.FailureProb = 0.15
	roll := DefaultParams(0.3, 4)
	roll.RolloverWorkers = true
	params := []Params{DefaultParams(1, 8), fail, roll}

	for _, name := range []string{"prio", "fifo", "random", "prio-maxjobs=4"} {
		factory, err := PolicyFactory(name, g)
		if err != nil {
			t.Fatal(err)
		}
		runner := NewRunner(g)
		pooled := factory()
		for _, p := range params {
			for seed := uint64(1); seed <= 20; seed++ {
				got := runner.Run(p, pooled, seed)
				want := Run(g, p, factory(), rng.New(seed))
				if got != want {
					t.Fatalf("%s seed %d: pooled run %+v, fresh run %+v", name, seed, got, want)
				}
			}
		}
	}
}

// TestRunKernelZeroAllocs is the census behind the kernel's zero-alloc
// contract (see the package doc): once the pooled buffers have reached
// the high-water mark of the seeds a Runner replays, a replication
// performs zero heap allocations. Every row is one drain regime (see
// kernelRegimes) under one policy Runner.Run can dispatch to, so every
// kernel branch and every Policy implementation is measured, not just
// the default set-mode path the bench smoke runs.
//
// Each row replays its seeds once to warm (AllocsPerRun's own warm-up
// call) and then counts allocations per replay of the same seeds over
// three replays. The unit is the whole replay, not one replication:
// AllocsPerRun floors the total over the run count, and a steady-state
// allocation in any replication of the replay recurs in every replay,
// so it reads at least 1, where averaged over single replications it
// could round down to 0. Three replays rather than one because the
// counter is process-wide: under CPU contention the runtime now and
// then allocates one object of its own while a long replay is
// preempted (on a 2-CPU host with another test binary running, one run
// of this package in four had such a row), and that lone allocation
// must not read as the kernel's.
func TestRunKernelZeroAllocs(t *testing.T) {
	for _, rg := range kernelRegimes(t) {
		for _, name := range kernelPolicies {
			t.Run(rg.name+"/"+name, func(t *testing.T) {
				factory, err := PolicyFactory(name, rg.g)
				if err != nil {
					t.Fatal(err)
				}
				runner := NewRunner(rg.g)
				pol := factory()
				allocs := testing.AllocsPerRun(3, func() {
					for _, p := range rg.params {
						for seed := uint64(1); seed <= regimeSeeds; seed++ {
							runner.Run(p, pol, seed)
						}
					}
				})
				if allocs != 0 {
					t.Errorf("%.0f allocations per replay of %d steady-state replications, want 0", allocs, len(rg.params)*regimeSeeds)
				}
			})
		}
	}
}

// TestFastPathMatchesOrdered pins set mode to the reference sort-merge
// kernel on paper-scale dags across the batch regimes the grids sweep
// — tiny interarrivals (many near-empty drain windows), balanced, and
// huge batches (one window drains thousands of events) — for every
// ranker family and FIFO. The fuzz target covers the same equivalence
// on arbitrary 8-node dags; this test covers real widths, where the
// calendar's bucket walk, boundary filtering, FIFO's per-bucket sort
// and occupancy jumps actually engage.
func TestFastPathMatchesOrdered(t *testing.T) {
	for _, w := range []struct {
		name string
		g    *dag.Frozen
	}{{"airsn", workloads.AIRSN(15)}, {"montage", workloads.Montage(20, 3)}} {
		for _, name := range []string{"prio", "critpath", "heft", "graphene", "heft+outdeg", "fifo"} {
			factory, err := PolicyFactory(name, w.g)
			if err != nil {
				t.Fatal(err)
			}
			runner := NewRunner(w.g)
			pol, refPol := factory(), factory()
			for _, p := range []Params{
				DefaultParams(0.05, 0.5),
				DefaultParams(0.05, 16),
				DefaultParams(1, 8),
				DefaultParams(1, 1600),
				DefaultParams(100, 4),
			} {
				for seed := uint64(1); seed <= 10; seed++ {
					got := runner.Run(p, pol, seed)
					if runner.st.mode == exactDrain {
						t.Fatalf("%s: drained in exact mode, want set mode", name)
					}
					want := runOrdered(w.g, p, refPol, rng.New(seed), nil)
					if got != want {
						t.Fatalf("%s/%s bit=%g bs=%g seed %d:\n kernel    %+v\n reference %+v",
							w.name, name, p.BatchInterarrival, p.BatchSize, seed, got, want)
					}
				}
			}
		}
	}
}

// TestFastPathRankerCensus is the acceptance gate for the two-tier
// policy architecture: every shipped ranker family — plus a composed
// tie-breaker chain standing in for the open-ended chain grammar —
// must (a) come out of the factory as a static-rank policy, which the
// kernel drains in set mode, (b) reproduce the reference kernel bit
// for bit, and (c) run at exactly zero allocations in steady state.
func TestFastPathRankerCensus(t *testing.T) {
	g := workloads.Montage(20, 3)
	base := DefaultParams(1, 16)
	for _, name := range []string{"prio", "critpath", "heft", "graphene", "heft+outdeg"} {
		factory, err := PolicyFactory(name, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pol := factory()
		sr, ok := pol.(staticRank)
		if !ok {
			t.Fatalf("%s: a ranker-backed policy must have set semantics", name)
		}
		if got := sr.StaticOrder(); len(got) != g.NumNodes() {
			t.Fatalf("%s: static order covers %d jobs, dag has %d", name, len(got), g.NumNodes())
		}

		runner := NewRunner(g)
		for seed := uint64(1); seed <= 5; seed++ {
			got := runner.Run(base, pol, seed)
			want := runOrdered(g, base, factory(), rng.New(seed), nil)
			if got != want {
				t.Fatalf("%s seed %d:\n kernel    %+v\n reference %+v", name, seed, got, want)
			}
		}
		// Steady state reached above; set mode must now be
		// allocation-free for this family, not just for PRIO.
		seed := uint64(99)
		if allocs := testing.AllocsPerRun(5, func() {
			runner.Run(base, pol, seed)
			seed++
		}); allocs != 0 {
			t.Fatalf("%s: kernel allocates %.0f objects per replication, want 0", name, allocs)
		}
	}
}

// TestDrainModeCensus pins which replications drain in set mode, the
// kernel's fast path, so losing it fails here without any timing: the
// rank policies and FIFO at the paper's parameters must, and FIFO with
// failures, rollover, per-job means or an observer, RANDOM and the
// maxjobs throttle must drain in exact mode. Each row also matches the
// reference kernel.
func TestDrainModeCensus(t *testing.T) {
	g := workloads.AIRSN(15)
	base := DefaultParams(1, 8)
	fail := base
	fail.FailureProb = 0.1
	roll := base
	roll.RolloverWorkers = true
	means := base
	means.JobMeans = make([]float64, g.NumNodes())
	for v := range means.JobMeans {
		means.JobMeans[v] = 1
	}
	for _, tc := range []struct {
		name, pol string
		p         Params
		observed  bool
		want      drainMode
	}{
		{"prio", "prio", base, false, rankDrain},
		{"heft", "heft", base, false, rankDrain},
		{"fifo", "fifo", base, false, fifoDrain},
		{"fifo/failures", "fifo", fail, false, exactDrain},
		{"fifo/rollover", "fifo", roll, false, exactDrain},
		{"fifo/job-means", "fifo", means, false, exactDrain},
		{"fifo/observer", "fifo", base, true, exactDrain},
		{"prio/observer", "prio", base, true, exactDrain},
		{"random", "random", base, false, exactDrain},
		{"prio-maxjobs", "prio-maxjobs=4", base, false, exactDrain},
	} {
		factory, err := PolicyFactory(tc.pol, g)
		if err != nil {
			t.Fatal(err)
		}
		var obs Observer
		if tc.observed {
			obs = &recorder{}
		}
		var st runState
		got := st.run(g, tc.p, factory(), rng.New(3), obs)
		if st.mode != tc.want {
			t.Errorf("%s: drain mode %d, want %d", tc.name, st.mode, tc.want)
		}
		if want := runOrdered(g, tc.p, factory(), rng.New(3), nil); got != want {
			t.Errorf("%s:\n kernel    %+v\n reference %+v", tc.name, got, want)
		}
	}
}

// kernelPolicies names one policy per Policy implementation Runner.Run
// can dispatch to: Oblivious (from two ranker families, prio and heft),
// FIFO, Random, and TwoLevel.
var kernelPolicies = []string{"prio", "heft", "fifo", "random", "prio-maxjobs=4"}

// regimeSeeds is how many replication seeds each regime's tests replay.
const regimeSeeds = 6

// A kernelRegime is one dag and the parameter sets that drive the
// kernel down one drain path.
type kernelRegime struct {
	name   string
	g      *dag.Frozen
	params []Params
}

// kernelRegimes builds the drain regimes the kernel tests sweep, and
// fails t if one of them stops reaching the branch it is named for:
//
//   - the default parameters: set mode for the static-rank policies
//     and FIFO, exact mode for the rest;
//   - a job-time spread of 3 around a mean of 1: the 1e-3 floor clamps
//     about a third of the draws, so jobs of one batch complete at the
//     same instant and the drains order ties by job id. The dag is a
//     random layered one, whose jobs are not interchangeable the way
//     AIRSN's identical chains are, declared in a shuffled order so
//     that FIFO's relabeled ids order ties differently from the
//     original ids;
//   - rollover with JobTimeMean 100 and a wide job-time spread: a bucket
//     is ~1.8 time units wide, far above the 1e-3 job-time floor, so
//     rolled-over workers handed jobs whose draw was clamped schedule
//     completions inside the bucket being drained (and tie exactly with
//     each other, which the (at, job) order resolves);
//   - per-job means spread far beyond the wheel's horizon, so the
//     overflow chain holds live events that must cascade back onto the
//     ring in time order;
//   - failures, with and without rollover, where a failure can reopen
//     assignment after a drain has passed the next batch's time.
func kernelRegimes(t testing.TB) []kernelRegime {
	airsn, montage := workloads.AIRSN(15), workloads.Montage(20, 3)

	// Wide batches keep a couple of events in every bucket, so a
	// clamped rollover completion lands ahead of pending ones.
	slow := Params{BatchInterarrival: 300, BatchSize: 512, JobTimeMean: 100, JobTimeStdDev: 100, RolloverWorkers: true}
	slowNarrow := slow
	slowNarrow.BatchInterarrival, slowNarrow.BatchSize = 40, 16
	if w := 1 / bucketsPerUnit(slow); w <= 1e-3 {
		t.Fatalf("bucket width %g must exceed the 1e-3 job-time floor", w)
	}

	n := airsn.NumNodes()
	spread := DefaultParams(1, 8)
	spread.JobMeans = make([]float64, n)
	for v := range spread.JobMeans {
		spread.JobMeans[v] = 1 + float64(v%9)*7 // up to 57, against a ~29-unit wheel
	}
	spreadRoll := spread
	spreadRoll.RolloverWorkers = true
	spreadRoll.BatchInterarrival = 0.3
	if horizon := float64(buckets) / bucketsPerUnit(spread); 57 < horizon {
		t.Fatalf("per-job means must exceed the wheel horizon %g", horizon)
	}

	fail := DefaultParams(1, 8)
	fail.FailureProb = 0.3
	failBig := DefaultParams(5, 64)
	failBig.FailureProb = 0.5
	failRoll := DefaultParams(0.3, 4)
	failRoll.FailureProb = 0.2
	failRoll.RolloverWorkers = true

	shuffled := shuffledDag(workloads.Layered(rng.New(1), 10, 12, 0.2), 1)
	ties := DefaultParams(1, 8)
	ties.JobTimeStdDev = 3
	rec := &recorder{}
	RunObserved(shuffled, ties, NewFIFO(), rng.New(1), rec)
	if rec.ties == 0 {
		t.Fatalf("job-time spread %g: no two completions tie", ties.JobTimeStdDev)
	}

	return []kernelRegime{
		{"default", airsn, []Params{DefaultParams(1, 8)}},
		{"ties", shuffled, []Params{ties}},
		{"rollover-wide-buckets", montage, []Params{slow, slowNarrow}},
		{"job-means-overflow", airsn, []Params{spread, spreadRoll}},
		{"failures", airsn, []Params{fail, failBig}},
		{"failures-rollover", airsn, []Params{failRoll}},
	}
}

// shuffledDag returns g with its jobs declared in a seeded random
// order, each job's arcs declared with it.
func shuffledDag(g *dag.Frozen, seed uint64) *dag.Frozen {
	n := g.NumNodes()
	perm := rng.New(seed).Perm(n)
	pos := make([]int, n)
	b := dag.NewWithCapacity(n)
	for i, old := range perm {
		pos[old] = i
		b.AddNode(g.Name(old))
	}
	for _, old := range perm {
		for _, c := range g.Children(old) {
			b.MustAddArc(pos[old], pos[c])
		}
	}
	return b.MustFreeze()
}

// TestExactOrderEdgeCases pins the kernel to the reference kernel in
// every regime of kernelRegimes under every policy. Beyond the default
// parameters, these are the regimes where the calendar's exact drain has
// to do more than sort a bucket.
func TestExactOrderEdgeCases(t *testing.T) {
	for _, rg := range kernelRegimes(t) {
		for _, name := range kernelPolicies {
			factory, err := PolicyFactory(name, rg.g)
			if err != nil {
				t.Fatal(err)
			}
			runner := NewRunner(rg.g)
			pol := factory()
			for pi, p := range rg.params {
				for seed := uint64(1); seed <= regimeSeeds; seed++ {
					got := runner.Run(p, pol, seed)
					want := runOrdered(rg.g, p, factory(), rng.New(seed), nil)
					if got != want {
						t.Fatalf("%s/%s params %d seed %d:\n kernel    %+v\n reference %+v", rg.name, name, pi, seed, got, want)
					}
				}
			}
		}
	}
}

// bucketsPerUnit is the wheel resolution the kernel picks for p.
func bucketsPerUnit(p Params) float64 {
	var st runState
	st.start(independentDag(1), p, exactDrain)
	return st.invW
}

// recorder is an Observer that keeps every callback time and counts
// completions, and those at the same time as the one before.
type recorder struct {
	times []float64
	count int
	ties  int
	last  float64
}

func (r *recorder) BatchArrived(at float64, size, served int) { r.times = append(r.times, at) }
func (r *recorder) Assigned(at float64, job int)              { r.times = append(r.times, at) }
func (r *recorder) Failed(at float64, job int)                { r.times = append(r.times, at) }

func (r *recorder) Completed(at float64, job int) {
	r.times = append(r.times, at)
	if r.count > 0 && at == r.last {
		r.ties++
	}
	r.count++
	r.last = at
}

// TestObserverMatchesRunner pins dagsim -trace to the figures: an
// observed run drains in exact mode while Runner.Run drains oblivious
// policies and FIFO in set mode, and both must give bit-identical
// metrics at the same seed. Without failures the observer must also see time move
// forward only; a failure can reopen assignment at a batch time the
// drain has already passed, so failure runs check metrics alone.
func TestObserverMatchesRunner(t *testing.T) {
	g := workloads.AIRSN(15)
	roll := DefaultParams(0.3, 4)
	roll.RolloverWorkers = true
	fail := DefaultParams(1, 8)
	fail.FailureProb = 0.15
	for _, name := range []string{"prio", "fifo", "random", "prio-maxjobs=4"} {
		factory, err := PolicyFactory(name, g)
		if err != nil {
			t.Fatal(err)
		}
		runner := NewRunner(g)
		pol := factory()
		for pi, p := range []Params{DefaultParams(1, 8), DefaultParams(0.05, 64), roll, fail} {
			for seed := uint64(1); seed <= 6; seed++ {
				rec := &recorder{}
				got := RunObserved(g, p, factory(), rng.New(seed), rec)
				if want := runner.Run(p, pol, seed); got != want {
					t.Fatalf("%s params %d seed %d: observed %+v, runner %+v", name, pi, seed, got, want)
				}
				if rec.count != g.NumNodes() {
					t.Fatalf("%s params %d seed %d: %d completions observed, want %d", name, pi, seed, rec.count, g.NumNodes())
				}
				if p.FailureProb > 0 {
					continue
				}
				for i := 1; i < len(rec.times); i++ {
					if rec.times[i] < rec.times[i-1] {
						t.Fatalf("%s params %d seed %d: callback %d at %g after %g", name, pi, seed, i, rec.times[i], rec.times[i-1])
					}
				}
			}
		}
	}
}

// TestFastCalendar drives the set-mode calendar white-box: inserts
// across the ring, boundary buckets with survivors, and drain-all. The
// dag has no arcs, so complete() is a no-op and the calendar mechanics
// are isolated. It also pins the horizon bound that keeps set mode off
// the overflow chain: the largest job time a Box-Muller draw can
// produce stays far inside the wheel.
func TestFastCalendar(t *testing.T) {
	b := dag.NewWithCapacity(4)
	for _, name := range []string{"a", "b", "c", "d"} {
		b.AddNode(name)
	}
	g := b.MustFreeze()
	o := NewOblivious("ID", []int{0, 1, 2, 3})

	var st runState
	st.buildTopo(g)
	st.buildRank(o)
	for _, p := range []Params{DefaultParams(1, 8), {JobTimeMean: 1e-3, JobTimeStdDev: 50}, {JobTimeMean: 100}} {
		st.start(g, p, rankDrain)
		if maxD := p.JobTimeMean + 8.6*p.JobTimeStdDev + 1e-3; maxD*st.invW+1 >= buckets {
			t.Fatalf("%+v: a %g job time spans %g buckets, past the set-mode horizon", p, maxD, maxD*st.invW)
		}
	}

	st.start(g, DefaultParams(1, 8), rankDrain) // span ≈ 1.8, invW ≈ 284 buckets/unit
	// Two events inside the first window, two past it.
	st.insert(0.5, 0)
	st.insert(1.0, 1)
	st.insert(1.5, 2)
	st.insert(2.5, 3)
	if st.live != 4 || st.overCnt != 0 {
		t.Fatalf("live=%d overCnt=%d, want 4 ring events", st.live, st.overCnt)
	}
	if got := st.drain(1.0, false); got != 2 {
		t.Fatalf("drain(1.0)=%d, want 2 (0.5 and the boundary 1.0)", got)
	}
	if st.live != 2 {
		t.Fatalf("live=%d after first window, want 2 survivors", st.live)
	}
	if got := st.drain(2.0, false); got != 1 {
		t.Fatalf("drain(2.0)=%d, want the 1.5 survivor", got)
	}
	// drain-all collects the rest (T is ignored).
	if got := st.drain(0, true); got != 1 {
		t.Fatalf("drain(all)=%d, want the 2.5 event", got)
	}
	if st.live != 0 {
		t.Fatalf("calendar not empty after drain-all: live=%d", st.live)
	}
	if st.maxIns != 2.5 {
		t.Fatalf("maxIns=%g, want 2.5", st.maxIns)
	}

	// A second start on the same state must fully reset the calendar.
	st.start(g, DefaultParams(1, 8), rankDrain)
	if st.live != 0 || st.overCnt != 0 || st.maxIns != 0 {
		t.Fatalf("start did not reset: live=%d over=%d maxIns=%g", st.live, st.overCnt, st.maxIns)
	}
	st.insert(0.25, 2)
	if got := st.drain(0.5, false); got != 1 {
		t.Fatalf("drain after reset=%d, want 1", got)
	}
}

// TestExactCalendar drives the exact drain white-box against a
// sorted-slice oracle: pushes anywhere from before the drain's base
// (the bucket being drained, or earlier) to far past the wheel's
// horizon, interleaved with windowed and drain-all pops. Every pop
// must be the oracle's (at, job) minimum, and a windowed drain must
// stop exactly when nothing due remains.
func TestExactCalendar(t *testing.T) {
	r := rng.New(5)
	var st runState
	st.start(independentDag(16), DefaultParams(1, 8), exactDrain)
	var live []completion
	job := int32(0)
	T := 0.0
	for step := 0; step < 4000; step++ {
		for i := int(r.Float64() * 6); i > 0; i-- {
			var at float64
			switch u := r.Float64(); {
			case u < 0.1:
				at = T + 30 + r.Float64()*60 // past the ~29-unit horizon
			case u < 0.25:
				at = T - r.Float64()*0.01 // at or before the drain's base
			case u < 0.3:
				at = T + 1e-3 // exact ties
			default:
				at = T + r.Float64()*2
			}
			if at < 0 {
				at = 0
			}
			ev := completion{at: at, job: job}
			job++
			st.push(ev.at, ev.job)
			live = append(live, ev)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].before(live[j]) })
		all := r.Float64() < 0.05
		for {
			ev, ok := st.next(T, all)
			if !ok {
				if len(live) > 0 && (all || live[0].at <= T) {
					t.Fatalf("step %d: drain stopped with %+v due by %g", step, live[0], T)
				}
				break
			}
			if len(live) == 0 || ev != live[0] {
				t.Fatalf("step %d: popped %+v, oracle min %+v", step, ev, live)
			}
			live = live[1:]
			if all && r.Float64() < 0.1 {
				break // a failure reopening assignment mid-drain
			}
		}
		T += r.Exp(0.5)
	}
}

// TestKernelCSRViews checks the shared dag.Frozen CSR arrays the kernel
// borrows (ChildCSR, Sources, the indegrees reset reads) against the
// per-node accessors: the kernel no longer flattens the dag itself, so
// this pins the layout contract it depends on.
func TestKernelCSRViews(t *testing.T) {
	g := workloads.AIRSN(10)
	childStart, children := g.ChildCSR()
	n := g.NumNodes()
	if len(childStart) != n+1 {
		t.Fatalf("childStart length %d, want %d", len(childStart), n+1)
	}
	for v := 0; v < n; v++ {
		kids := g.Children(v)
		lo, hi := childStart[v], childStart[v+1]
		if int(hi-lo) != len(kids) {
			t.Fatalf("node %d: %d children in layout, want %d", v, hi-lo, len(kids))
		}
		for i, c := range kids {
			if children[lo+int32(i)] != c {
				t.Fatalf("node %d child %d: layout %d, want %d", v, i, children[lo+int32(i)], c)
			}
		}
	}
	var sources []int32
	for v := 0; v < n; v++ {
		if g.InDegree(v) == 0 {
			sources = append(sources, int32(v))
		}
	}
	got := g.Sources()
	if len(sources) != len(got) {
		t.Fatalf("sources %v, want %v", got, sources)
	}
	for i := range sources {
		if sources[i] != got[i] {
			t.Fatalf("sources %v, want %v", got, sources)
		}
	}
	// An exact-mode start fills remaining from the precomputed indegrees.
	var st runState
	st.start(g, DefaultParams(1, 8), exactDrain)
	for v := 0; v < n; v++ {
		if int(st.remaining[v]) != g.InDegree(v) {
			t.Fatalf("node %d remaining %d, want indegree %d", v, st.remaining[v], g.InDegree(v))
		}
	}
}

// TestFIFOCompaction asserts the satellite fix: the FIFO queue no
// longer retains every job ever enqueued. A long enqueue/dequeue churn
// (the failure/rollover pattern that re-enqueues jobs indefinitely)
// must keep the backing slice bounded by the live queue length, not the
// total enqueue count.
func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO()
	f.Start(independentDag(4), rng.New(1))
	const churn = 100000
	maxLen := 0
	for i := 0; i < churn; i++ {
		f.Eligible(i)
		f.Eligible(i + churn)
		if _, ok := f.Next(); !ok {
			t.Fatal("queue unexpectedly empty")
		}
		if len(f.queue) > maxLen {
			maxLen = len(f.queue)
		}
	}
	// The live backlog grows by one per iteration; the backing slice
	// may hold up to ~2x the live entries between compactions but must
	// not hold all 2*churn ever-enqueued jobs.
	live := churn + 1
	if maxLen > 2*live+4 {
		t.Fatalf("queue slice grew to %d for %d live entries: consumed prefix retained", maxLen, live)
	}

	// Steady-state churn on a near-empty queue: the slice must stay
	// tiny even after many cycles. (Fresh policy: Start deliberately
	// keeps grown capacity for reuse across replications.)
	f = NewFIFO()
	f.Start(independentDag(4), rng.New(1))
	for i := 0; i < churn; i++ {
		f.Eligible(i)
		f.Next()
	}
	if len(f.queue) > 4 || cap(f.queue) > 1024 {
		t.Fatalf("steady-state queue len=%d cap=%d, want compacted", len(f.queue), cap(f.queue))
	}
	// Order is preserved across compactions.
	f.Start(independentDag(4), rng.New(1))
	next := 0
	for i := 0; i < 1000; i++ {
		f.Eligible(2 * i)
		f.Eligible(2*i + 1)
		v, ok := f.Next()
		if !ok || v != next {
			t.Fatalf("pop %d = %d,%v want %d", i, v, ok, next)
		}
		next++
	}
}

// TestTwoLevelCompaction covers the same fix on the DAGMan-queue side
// of the two-level policy.
func TestTwoLevelCompaction(t *testing.T) {
	order := make([]int, 4)
	for i := range order {
		order[i] = i
	}
	tl := NewTwoLevel(order, 1)
	tl.Start(independentDag(4), rng.New(1))
	for i := 0; i < 100000; i++ {
		tl.Eligible(i % 4)
		if _, ok := tl.Next(); !ok {
			t.Fatal("two-level queue unexpectedly empty")
		}
	}
	if len(tl.dagman) > 8 || cap(tl.dagman) > 1024 {
		t.Fatalf("dagman queue len=%d cap=%d, want compacted", len(tl.dagman), cap(tl.dagman))
	}
}

// BenchmarkRunKernel is the replication-kernel micro-benchmark: one
// paper-scale replication per iteration through the pooled Runner, the
// unit of work the 11.3M-run evaluation repeats. Each paper dag runs
// with a batch size matched to its width, as in Figures 6-9 (AIRSN is
// narrow, SDSS is ~1e4 jobs wide). Compare BenchmarkRunAIRSN (fresh
// state per run, the pre-engine cost) in sim_test.go; make bench-sim
// records both in BENCH_sim.json.
func BenchmarkRunKernel(b *testing.B) {
	for _, w := range []struct {
		dag  string
		muBS float64
	}{{"airsn", 16}, {"inspiral", 512}, {"sdss", 8192}} {
		g, err := workloads.ByName(w.dag, 1)
		if err != nil {
			b.Fatal(err)
		}
		order := core.Prioritize(g).Order
		heftFactory, err := PolicyFactory("heft", g)
		if err != nil {
			b.Fatal(err)
		}
		p := DefaultParams(1, w.muBS)
		// One ranker-tier family (heft) benches alongside the paper's
		// pair so BENCH_sim.json carries a per-policy row proving the
		// new families run the same zero-alloc fast path — bench-sim's
		// RunKernel/ assertions gate its B/op at exactly 0 like prio's.
		for _, tc := range []struct {
			name string
			pol  Policy
		}{{"prio", NewOblivious("PRIO", order)}, {"fifo", NewFIFO()}, {"heft", heftFactory()}} {
			b.Run(w.dag+"/"+tc.name, func(b *testing.B) {
				runner := NewRunner(g)
				runner.Run(p, tc.pol, 1) // reach steady state before measuring
				// Time the loop on one P, as testing.AllocsPerRun counts.
				// With a second, idle P the scheduler now and then starts
				// a new OS thread to run it, and the runtime allocates
				// ~5 KB on the heap for that thread, which the 0 B/op gate
				// reads as 2 B/op. The kernel is single-threaded and
				// allocation-free, so one P changes nothing else it does.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runner.Run(p, tc.pol, uint64(i))
				}
				b.StopTimer() // before the deferred GOMAXPROCS restore
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reps/s")
			})
		}
	}
}

// BenchmarkEngineGrid runs a small whole-grid experiment through the
// flat scheduler: 4 points × 2 policies × 36 replications per
// iteration on scaled AIRSN — the end-to-end shape of a Figures 6-9
// sweep.
func BenchmarkEngineGrid(b *testing.B) {
	g, err := workloads.ByName("airsn", 4)
	if err != nil {
		b.Fatal(err)
	}
	a, _ := PolicyFactory("prio", g)
	bf, _ := PolicyFactory("fifo", g)
	points := []Params{
		DefaultParams(1, 8), DefaultParams(1, 32),
		DefaultParams(10, 8), DefaultParams(10, 32),
	}
	opts := ExperimentOptions{P: 6, Q: 6, Seed: 1}
	reps := float64(len(points) * 2 * opts.P * opts.Q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		out := CompareGrid(g, points, a, bf, opts, nil)
		if !out[0].ExecTime.Valid {
			b.Fatal("invalid CI")
		}
	}
	b.ReportMetric(reps*float64(b.N)/b.Elapsed().Seconds(), "reps/s")
}
