package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

func chainDag(n int) *dag.Frozen {
	b := dag.New()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("v%d", i))
		if i > 0 {
			b.MustAddArc(i-1, i)
		}
	}
	return b.MustFreeze()
}

func independentDag(n int) *dag.Frozen {
	b := dag.New()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("v%d", i))
	}
	return b.MustFreeze()
}

func fifoRun(g *dag.Frozen, p Params, seed uint64) Metrics {
	return Run(g, p, NewFIFO(), rng.New(seed))
}

func TestRunDeterministic(t *testing.T) {
	g := workloads.AIRSN(20)
	p := DefaultParams(1, 8)
	a := fifoRun(g, p, 42)
	b := fifoRun(g, p, 42)
	if a != b {
		t.Fatalf("same seed gave %+v and %+v", a, b)
	}
	c := fifoRun(g, p, 43)
	if a == c {
		t.Fatal("different seeds gave identical metrics (suspicious)")
	}
}

func TestRunEmptyGraph(t *testing.T) {
	m := Run(dag.New().MustFreeze(), DefaultParams(1, 1), NewFIFO(), rng.New(1))
	if m.ExecutionTime != 0 || m.Batches != 0 {
		t.Fatalf("empty graph metrics = %+v", m)
	}
}

func TestRunChainTakesCriticalPath(t *testing.T) {
	// A 20-job chain with frequent batches: execution time must be near
	// 20 regardless of policy (jobs average 1 time unit, sequential).
	g := chainDag(20)
	p := DefaultParams(0.001, 4)
	var acc float64
	const reps = 30
	for i := 0; i < reps; i++ {
		acc += fifoRun(g, p, uint64(i)).ExecutionTime
	}
	mean := acc / reps
	if mean < 19 || mean > 21.5 {
		t.Fatalf("chain mean execution time = %v, want ~20", mean)
	}
}

func TestRunParallelWithBigBatch(t *testing.T) {
	// 50 independent jobs, one huge batch arriving at time 0: the whole
	// dag finishes in about one job time.
	g := independentDag(50)
	p := DefaultParams(1000, 1e6)
	m := fifoRun(g, p, 7)
	if m.ExecutionTime > 1.6 {
		t.Fatalf("parallel batch execution time = %v, want ~1", m.ExecutionTime)
	}
	if m.Batches != 1 {
		t.Fatalf("batches = %d, want 1", m.Batches)
	}
	if m.Utilization > 1e-3 {
		t.Fatalf("utilization with a million requests should be tiny, got %v", m.Utilization)
	}
}

func TestRunSequentialRegime(t *testing.T) {
	// Tiny batches arriving rarely: execution is sequential and takes
	// about n * muBIT.
	g := independentDag(10)
	p := DefaultParams(10, 1)
	var acc float64
	const reps = 40
	for i := 0; i < reps; i++ {
		acc += fifoRun(g, p, uint64(100+i)).ExecutionTime
	}
	mean := acc / reps
	// first batch at 0, so ~ (waiting for enough batches) ~ muBIT * E[batches]
	if mean < 50 || mean > 130 {
		t.Fatalf("sequential mean execution time = %v, want ~90", mean)
	}
}

func TestMetricsRanges(t *testing.T) {
	g := workloads.AIRSN(15)
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		p := DefaultParams(math.Pow(10, float64(r.Intn(5)-2)), math.Pow(2, float64(r.Intn(10))))
		m := Run(g, p, NewFIFO(), r.Split())
		if m.StallProbability < 0 || m.StallProbability > 1 {
			t.Fatalf("stall probability %v out of range", m.StallProbability)
		}
		if m.Utilization < 0 || m.Utilization > 1 {
			t.Fatalf("utilization %v out of range", m.Utilization)
		}
		if m.ExecutionTime <= 0 {
			t.Fatalf("execution time %v", m.ExecutionTime)
		}
		if m.Requests < g.NumNodes() {
			t.Fatalf("requests %d < jobs %d", m.Requests, g.NumNodes())
		}
	}
}

func TestObliviousRespectsPriority(t *testing.T) {
	g := independentDag(3)
	// priority order: job 2, job 0, job 1
	pol := NewOblivious("test", []int{2, 0, 1})
	pol.Start(g, rng.New(1))
	pol.Eligible(0)
	pol.Eligible(1)
	pol.Eligible(2)
	want := []int{2, 0, 1}
	for _, w := range want {
		v, ok := pol.Next()
		if !ok || v != w {
			t.Fatalf("Next = %d,%v want %d", v, ok, w)
		}
	}
	if _, ok := pol.Next(); ok {
		t.Fatal("Next on empty should fail")
	}
}

func TestObliviousWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pol := NewOblivious("bad", []int{0})
	pol.Start(independentDag(2), rng.New(1))
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO()
	f.Start(independentDag(3), rng.New(1))
	f.Eligible(2)
	f.Eligible(0)
	if v, _ := f.Next(); v != 2 {
		t.Fatalf("FIFO returned %d, want 2", v)
	}
	f.Eligible(1)
	if v, _ := f.Next(); v != 0 {
		t.Fatal("FIFO order broken")
	}
	if v, _ := f.Next(); v != 1 {
		t.Fatal("FIFO order broken")
	}
	if _, ok := f.Next(); ok {
		t.Fatal("empty FIFO returned a job")
	}
	// Start resets
	f.Start(independentDag(3), rng.New(1))
	if _, ok := f.Next(); ok {
		t.Fatal("Start did not reset")
	}
}

func TestStallProbabilityOnChain(t *testing.T) {
	// A chain with very frequent batches stalls almost always: most
	// batches find the single eligible job already assigned.
	g := chainDag(10)
	p := DefaultParams(0.01, 1)
	m := fifoRun(g, p, 9)
	if m.StallProbability < 0.5 {
		t.Fatalf("chain with frequent batches should stall often, got %v", m.StallProbability)
	}
	// With huge batch gaps there is no stalling: every batch finds work.
	p2 := DefaultParams(100, 1)
	m2 := fifoRun(g, p2, 9)
	if m2.StallProbability != 0 {
		t.Fatalf("slow batches on a chain should never stall, got %v", m2.StallProbability)
	}
}

func TestCompareProducesValidCIs(t *testing.T) {
	g := workloads.AIRSN(10)
	opts := ExperimentOptions{P: 10, Q: 5, Confidence: 95, Seed: 3, Workers: 4}
	c := ComparePRIOFIFO(g, DefaultParams(1, 8), opts)
	if !c.ExecTime.Valid {
		t.Fatal("execution-time CI invalid")
	}
	if c.ExecTime.Lo > c.ExecTime.Median || c.ExecTime.Median > c.ExecTime.Hi {
		t.Fatalf("CI ordering broken: %+v", c.ExecTime)
	}
	if c.A.Name != "PRIO" || c.B.Name != "FIFO" {
		t.Fatalf("names = %s, %s", c.A.Name, c.B.Name)
	}
	if len(c.A.ExecTime) != 10 {
		t.Fatalf("sampling distribution size %d", len(c.A.ExecTime))
	}
}

func TestCompareDeterministic(t *testing.T) {
	g := workloads.AIRSN(8)
	opts := ExperimentOptions{P: 6, Q: 4, Seed: 11, Workers: 8}
	a := ComparePRIOFIFO(g, DefaultParams(1, 4), opts)
	b := ComparePRIOFIFO(g, DefaultParams(1, 4), opts)
	if a.ExecTime != b.ExecTime || a.Stalling != b.Stalling || a.Utilization != b.Utilization {
		t.Fatal("Compare not deterministic across runs")
	}
}

func TestPRIOBeatsFIFOOnAIRSNMidRange(t *testing.T) {
	// Scaled-down version of the headline experiment: AIRSN, mid-range
	// batch size, batches arriving about once per job time. PRIO's
	// median execution-time ratio must show a clear gain.
	g := workloads.AIRSN(60)
	opts := ExperimentOptions{P: 15, Q: 15, Seed: 17}
	c := ComparePRIOFIFO(g, DefaultParams(1, 8), opts)
	if !c.ExecTime.Valid {
		t.Fatal("no CI")
	}
	if c.ExecTime.Median >= 1.0 {
		t.Fatalf("PRIO median ratio = %v, expected < 1", c.ExecTime.Median)
	}
}

func TestExtremeRegimesNearParity(t *testing.T) {
	// With enormous batches the execution degenerates to BFS level
	// order for any policy: the ratio must be ~1.
	g := workloads.AIRSN(20)
	opts := ExperimentOptions{P: 8, Q: 8, Seed: 23}
	c := ComparePRIOFIFO(g, DefaultParams(1, 1<<16), opts)
	if !c.ExecTime.Valid || c.ExecTime.Median < 0.9 || c.ExecTime.Median > 1.1 {
		t.Fatalf("huge-batch ratio = %+v, want ~1", c.ExecTime)
	}
}

func TestSweepShape(t *testing.T) {
	g := workloads.AIRSN(8)
	opts := ExperimentOptions{P: 4, Q: 3, Seed: 5}
	var seen int
	points := Sweep(g, []float64{0.1, 1}, []float64{1, 8}, opts, func(GridPoint) { seen++ })
	if len(points) != 4 || seen != 4 {
		t.Fatalf("sweep produced %d points, callback saw %d", len(points), seen)
	}
	if points[0].MuBIT != 0.1 || points[0].MuBS != 1 || points[3].MuBIT != 1 || points[3].MuBS != 8 {
		t.Fatal("sweep order wrong")
	}
	if points[0].FormatRow() == "" {
		t.Fatal("FormatRow empty")
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := ExperimentOptions{}.normalized()
	if o.P <= 0 || o.Q <= 0 || o.Workers <= 0 || o.Confidence != 95 {
		t.Fatalf("normalized defaults wrong: %+v", o)
	}
}

func TestBatchSizeDiscretization(t *testing.T) {
	r := rng.New(2)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		s := batchSize(r, 16)
		if s < 1 {
			t.Fatalf("batch size %d < 1", s)
		}
		sum += s
	}
	mean := float64(sum) / n
	// Exp(16) rounded, floored at 1: mean stays close to 16.
	if mean < 15 || mean > 17.5 {
		t.Fatalf("mean batch size = %v, want ~16", mean)
	}
}

func TestRunMatchesStaticTraceWhenSequential(t *testing.T) {
	// With batch size exactly 1 and rare batches, the simulator's
	// assignment order under FIFO equals core.FIFOSchedule.
	g := workloads.AIRSN(6)
	rec := &recordingPolicy{inner: NewFIFO()}
	Run(g, Params{BatchInterarrival: 50, BatchSize: 1e-9, JobTimeMean: 1, JobTimeStdDev: 0}, rec, rng.New(1))
	want := core.FIFOSchedule(g)
	if len(rec.assigned) != len(want) {
		t.Fatalf("assigned %d jobs, want %d", len(rec.assigned), len(want))
	}
	for i := range want {
		if rec.assigned[i] != want[i] {
			t.Fatalf("sequential FIFO diverges from static schedule at %d", i)
		}
	}
}

type recordingPolicy struct {
	inner    Policy
	assigned []int
}

func (r *recordingPolicy) Name() string { return "rec" }
func (r *recordingPolicy) Start(g *dag.Frozen, src *rng.Source) {
	r.inner.Start(g, src)
	r.assigned = nil
}
func (r *recordingPolicy) Eligible(v int) { r.inner.Eligible(v) }
func (r *recordingPolicy) Next() (int, bool) {
	v, ok := r.inner.Next()
	if ok {
		r.assigned = append(r.assigned, v)
	}
	return v, ok
}

func BenchmarkRunAIRSN(b *testing.B) {
	g := workloads.PaperAIRSN()
	order := core.Prioritize(g).Order
	p := DefaultParams(1, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, p, NewOblivious("PRIO", order), rng.New(uint64(i)))
	}
}

// TestParamsValidate is the table behind Validate's domain: the
// paper's parameters and the model's edge values pass; every
// non-finite float field or JobMeans entry, and every value outside a
// field's range, is refused with an error that names the field. On a
// kernel that accepts them, NaN or infinite interarrivals and job times
// never finish, and a NaN standard deviation returns a NaN execution
// time.
func TestParamsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := DefaultParams(1, 16)
	for _, tc := range []struct {
		name  string
		edit  func(*Params)
		field string // "" when p is valid
	}{
		{"paper", func(*Params) {}, ""},
		{"zero stddev", func(p *Params) { p.JobTimeStdDev = 0 }, ""},
		{"failures", func(p *Params) { p.FailureProb = 0.99 }, ""},
		{"finite job means", func(p *Params) { p.JobMeans = []float64{1, -2, 3e300} }, ""},
		{"NaN interarrival", func(p *Params) { p.BatchInterarrival = nan }, "BatchInterarrival"},
		{"+Inf interarrival", func(p *Params) { p.BatchInterarrival = inf }, "BatchInterarrival"},
		{"zero interarrival", func(p *Params) { p.BatchInterarrival = 0 }, "BatchInterarrival"},
		{"NaN batch size", func(p *Params) { p.BatchSize = nan }, "BatchSize"},
		{"+Inf batch size", func(p *Params) { p.BatchSize = inf }, "BatchSize"},
		{"negative batch size", func(p *Params) { p.BatchSize = -1 }, "BatchSize"},
		{"NaN job mean", func(p *Params) { p.JobTimeMean = nan }, "JobTimeMean"},
		{"+Inf job mean", func(p *Params) { p.JobTimeMean = inf }, "JobTimeMean"},
		{"NaN stddev", func(p *Params) { p.JobTimeStdDev = nan }, "JobTimeStdDev"},
		{"+Inf stddev", func(p *Params) { p.JobTimeStdDev = inf }, "JobTimeStdDev"},
		{"negative stddev", func(p *Params) { p.JobTimeStdDev = -0.1 }, "JobTimeStdDev"},
		{"NaN failure", func(p *Params) { p.FailureProb = nan }, "FailureProb"},
		{"-Inf failure", func(p *Params) { p.FailureProb = math.Inf(-1) }, "FailureProb"},
		{"certain failure", func(p *Params) { p.FailureProb = 1 }, "FailureProb"},
		{"NaN job means entry", func(p *Params) { p.JobMeans = []float64{1, nan} }, "JobMeans[1]"},
		{"-Inf job means entry", func(p *Params) { p.JobMeans = []float64{math.Inf(-1)} }, "JobMeans[0]"},
	} {
		p := ok
		tc.edit(&p)
		err := p.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.field != "" && err == nil:
			t.Errorf("%s: Validate() = nil, want an error naming %s", tc.name, tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field+" "):
			t.Errorf("%s: Validate() = %q, want it to name %s", tc.name, err, tc.field)
		}
	}
}

// TestRunJobMeansLength: JobMeans is indexed by job, and Validate
// cannot see the dag, so run refuses any length other than 0 or the
// dag's job count before the first event, naming both lengths.
func TestRunJobMeansLength(t *testing.T) {
	g := workloads.AIRSN(15)
	n := g.NumNodes()
	for _, tc := range []struct {
		name  string
		means int
		ok    bool
	}{
		{"empty", 0, true},
		{"one per job", n, true},
		{"too short", 2, false},
		{"too long", n + 1, false},
	} {
		p := DefaultParams(1, 16)
		p.JobMeans = make([]float64, tc.means)
		for i := range p.JobMeans {
			p.JobMeans[i] = 1
		}
		for _, entry := range []struct {
			name string
			run  func()
		}{
			{"Run", func() { Run(g, p, NewFIFO(), rng.New(1)) }},
			{"Runner.Run", func() { NewRunner(g).Run(p, NewFIFO(), 1) }},
		} {
			var got interface{}
			func() {
				defer func() { got = recover() }()
				entry.run()
			}()
			switch err, _ := got.(error); {
			case tc.ok && got != nil:
				t.Errorf("%s, %s: panicked with %v", tc.name, entry.name, got)
			case !tc.ok && err == nil:
				t.Errorf("%s, %s: recovered %v, want an error", tc.name, entry.name, got)
			case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("%d entries for a dag of %d jobs", tc.means, n)):
				t.Errorf("%s, %s: %q does not name both lengths", tc.name, entry.name, err)
			}
		}
	}
}
