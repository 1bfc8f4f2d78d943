package main

// The traced run: a per-layer ledger of all three paths, with the span
// recorder on. It times calls into each layer's public functions from
// outside — spans inside the program are a later change — and checks
// that every file's and request's stage self times add up to its traced
// total. End-to-end numbers never come from here.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dagman"
	"repro/internal/decompose"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ledgerReps is how many times each file is traced; layer times are
// medians over them.
const ledgerReps = 3

func runLedger(e *env, workload string) (*outcome, error) {
	rec := newRecorder(true)
	o := &outcome{}
	for _, l := range []func(*env, *recorder, *outcome) error{ledgerCorpus, ledgerSim, ledgerPriod} {
		if err := l(e, rec, o); err != nil {
			return nil, err
		}
	}
	checked, bad := stageSums(rec.spans)
	o.set("trace.stage_sum_ids", float64(checked), "count")
	for _, b := range bad {
		o.unexpected = append(o.unexpected, "stage-sum check: "+b)
	}
	path := filepath.Join(e.root, ".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", workload, e.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	logf("ledger: %d spans written to %s", len(rec.spans), path)
	return o, nil
}

// allocs runs f and returns the heap allocations and bytes it made.
func allocs(f func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// pipeline is the in-process prio pipeline on one file, traced when rec
// is on: parse, graph, a separate Divide, the whole prioritization and
// instrumentation, under one root span.
func pipeline(f *corpusFile, rec *recorder, id string) error {
	root := rec.begin("pipeline", id, -1)
	defer rec.end(root)
	h := rec.begin("dagman.parse", id, root)
	df, err := dagman.Parse(strings.NewReader(f.text))
	rec.end(h)
	if err != nil {
		return err
	}
	h = rec.begin("dagman.graph", id, root)
	g, err := df.Graph()
	rec.end(h)
	if err != nil {
		return err
	}
	h = rec.begin("decompose.divide", id, root)
	decompose.DecomposeOpts(g, decompose.Options{})
	rec.end(h)
	h = rec.begin("core.prioritize", id, root)
	sched := core.PrioritizeOpts(g, core.Options{Parallel: 1})
	rec.end(h)
	pr := make(map[string]int, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		pr[g.Name(v)] = sched.Priority[v]
	}
	h = rec.begin("dagman.instrument", id, root)
	df.Instrument(pr)
	rec.end(h)
	return nil
}

func ledgerCorpus(e *env, rec *recorder, o *outcome) error {
	c, _, err := setupCorpus(e)
	if err != nil {
		return err
	}
	type fileLedger struct {
		cli    []float64            // prio process wall
		stage  map[string][]float64 // self time per span name
		traced []float64            // pipeline wall, traced
		plain  []float64            // pipeline wall, recorder off
	}
	led := map[string]*fileLedger{}
	off := newRecorder(false)
	for rep := 0; rep < ledgerReps; rep++ {
		for _, f := range c.files {
			l := led[f.key()]
			if l == nil {
				l = &fileLedger{stage: map[string][]float64{}}
				led[f.key()] = l
			}
			id := fmt.Sprintf("%s#%d", f.key(), rep)
			t := time.Now()
			r, err := runPrio(c.prio, f, rep == 0)
			if err != nil {
				return err
			}
			rec.add("cli.file", id+"/cli", -1, t, r.wall)
			if rep == 0 {
				fc := checkInstrumented(f, string(r.out))
				o.attempted += fc.jobs
				o.failed += fc.failed
				o.unexpected = append(o.unexpected, fc.unexpected...)
			}
			l.cli = append(l.cli, ms(r.wall))

			t = time.Now()
			if err := pipeline(f, off, id); err != nil {
				return err
			}
			l.plain = append(l.plain, ms(time.Since(t)))
			t = time.Now()
			if err := pipeline(f, rec, id); err != nil {
				return err
			}
			l.traced = append(l.traced, ms(time.Since(t)))
		}
	}
	self := selfByID(rec.spans)
	for _, f := range c.files {
		for rep := 0; rep < ledgerReps; rep++ {
			for name, v := range self[fmt.Sprintf("%s#%d", f.key(), rep)] {
				led[f.key()].stage[name] = append(led[f.key()].stage[name], v)
			}
		}
	}

	// Exact counts, from one untimed pass with allocation accounting.
	type key struct{ name, form string }
	count := map[key]float64{}
	var plain, traced float64
	for _, f := range c.files {
		var df *dagman.File
		var perr error
		pa, pb := allocs(func() { df, perr = dagman.Parse(strings.NewReader(f.text)) })
		if perr != nil {
			return perr
		}
		fg, err := df.Graph()
		if err != nil {
			return err
		}
		var sched *core.Schedule
		ca, cb := allocs(func() { sched = core.PrioritizeOpts(fg, core.Options{Parallel: 1}) })
		pr := make(map[string]int, fg.NumNodes())
		for v := 0; v < fg.NumNodes(); v++ {
			pr[fg.Name(v)] = sched.Priority[v]
		}
		ia, ib := allocs(func() { df.Instrument(pr) })
		add := func(name string, v float64) { count[key{name, f.form}] += v }
		add("dagman.parse_allocs", pa)
		add("dagman.parse_alloc_bytes", pb)
		add("core.prioritize_allocs", ca)
		add("core.prioritize_alloc_bytes", cb)
		add("dagman.instrument_allocs", ia)
		add("dagman.instrument_alloc_bytes", ib)
		add("dagman.lines", float64(f.lines))
		add("dag.jobs", float64(fg.NumNodes()))
		add("dag.arcs", float64(fg.NumArcs()))
		add("decompose.shortcuts", float64(len(sched.Decomposition.Shortcuts)))
		add("decompose.components", float64(len(sched.Components)))
		recognized := 0
		for _, cs := range sched.Components {
			if cs.Family != bipartite.Unknown {
				recognized++
			}
		}
		add("core.recognized_components", float64(recognized))

		l := led[f.key()]
		plain += median(l.plain)
		traced += median(l.traced)
		cli := median(l.cli)
		o.set("cli.file_ms."+f.key(), cli, "ms")
		st := func(name string) float64 { return median(l.stage[name]) }
		inproc := st("dagman.parse") + st("dagman.graph") + st("core.prioritize") + st("pipeline") + st("dagman.instrument")
		add("dagman.parse_ms", st("dagman.parse"))
		add("dagman.graph_ms", st("dagman.graph"))
		add("dagman.instrument_ms", st("dagman.instrument"))
		add("decompose.divide_ms", st("decompose.divide"))
		add("core.prioritize_ms", st("core.prioritize"))
		add("core.recurse_combine_ms", st("core.prioritize")-st("decompose.divide"))
		add("cli.process_ms", cli-inproc)
		if f.key() == "sdss.fresh" {
			o.set("dagman.parse_share.sdss", st("dagman.parse")/(st("dagman.parse")+st("dagman.graph")+st("core.prioritize")), "ratio")
		}
	}
	for k, v := range count {
		unit := "count"
		switch {
		case strings.HasSuffix(k.name, "_ms"):
			unit = "ms"
		case strings.HasSuffix(k.name, "_bytes"):
			unit = "bytes"
		}
		switch k.name {
		case "dag.jobs", "dag.arcs", "decompose.shortcuts", "decompose.components", "core.recognized_components",
			"core.prioritize_allocs", "core.prioritize_alloc_bytes":
			if k.form == "fresh" { // the same dags in both forms
				o.set(k.name, v, unit)
			}
		default:
			o.set(k.name+"."+k.form, v, unit)
		}
	}
	o.set("trace.overhead_share.prio-corpus", traced/plain-1, "ratio")
	return nil
}

func ledgerSim(e *env, rec *recorder, o *outcome) error {
	ds, err := setupGrid(e.seed)
	if err != nil {
		return err
	}
	var busy, wall float64 // CPU time and wall time x workers of the grid passes, ms
	var fastT, orderedT float64
	batches := map[string][]float64{}
	requests := map[string][]float64{}
	var plain, traced, kernelAllocs float64
	for _, d := range ds {
		var orders []float64
		for i := 0; i < ledgerReps; i++ {
			t := time.Now()
			h := rec.begin("rank.prio_order", d.name+"/rank", -1)
			r, err := rank.New("prio", core.Options{})
			if err != nil {
				return err
			}
			r.Order(d.g)
			rec.end(h)
			orders = append(orders, ms(time.Since(t)))
		}
		o.set("rank.prio_order_ms."+d.name, median(orders), "ms")

		// The grid's replications, P*Q per point and policy as
		// CompareGrid runs them, one at a time on one Runner, so each
		// replication's kernel time is its own. At the middle point the
		// same replications run again with the recorder off (the
		// tracing overhead), and their execution times feed the CI.
		runner := sim.NewRunner(d.g)
		raw := map[string][]float64{}
		per := map[string][]float64{}
		mid := len(d.points) / 2
		for pi, p := range d.points {
			for _, pol := range []struct {
				name string
				mk   func() sim.Policy
			}{{"prio", d.prio}, {"fifo", d.fifo}} {
				policy := pol.mk()
				id := fmt.Sprintf("%s/%s/%d", d.name, pol.name, pi)
				var spent time.Duration
				for i := 0; i < d.p*d.q; i++ {
					seed := e.seed*1_000_003 + uint64(i)
					t := time.Now()
					h := rec.begin("sim.run", id, -1)
					m := runner.Run(p, policy, seed)
					rec.end(h)
					spent += time.Since(t)
					per[pol.name] = append(per[pol.name], float64(time.Since(t))/1e3)
					batches[pol.name] = append(batches[pol.name], float64(m.Batches))
					requests[pol.name] = append(requests[pol.name], float64(m.Requests))
					if pi == mid {
						raw[pol.name] = append(raw[pol.name], m.ExecutionTime)
					}
				}
				if pi != mid {
					continue
				}
				off := time.Now()
				for i := 0; i < d.p*d.q; i++ {
					runner.Run(p, policy, e.seed*1_000_003+uint64(i))
				}
				plain += ms(time.Since(off))
				traced += ms(spent)
				a, _ := allocs(func() {
					for i := 0; i < 20; i++ {
						runner.Run(p, policy, uint64(i))
					}
				})
				kernelAllocs += a
			}
		}
		o.set("sim.rep_fast_us."+d.name, median(per["prio"]), "us")
		o.set("sim.rep_ordered_us."+d.name, median(per["fifo"]), "us")
		fastT += sum(per["prio"])
		orderedT += sum(per["fifo"])

		t := time.Now()
		h := rec.begin("stats.ci", d.name+"/ci", -1)
		var ratio stats.RatioCI
		for k := 0; k < 3; k++ { // three metrics per point, as the engine folds them
			a := stats.SamplingDistribution(raw["prio"], d.p, d.q)
			b := stats.SamplingDistribution(raw["fifo"], d.p, d.q)
			ratio = stats.RatioInterval(a, b, d.opts.Confidence)
		}
		rec.end(h)
		if !ratio.Valid {
			o.unexpected = append(o.unexpected, d.name+": ledger ratio CI invalid")
		}
		o.set("stats.ci_ms."+d.name, ms(time.Since(t)), "ms")

		t, c := time.Now(), cpuTime()
		h = rec.begin("sim.grid", d.name+"/grid", -1)
		rows := sim.CompareGrid(d.g, d.points, d.prio, d.fifo, d.opts, nil)
		rec.end(h)
		busy += ms(cpuTime() - c)
		wall += ms(time.Since(t)) * float64(d.opts.Workers)
		for i, row := range rows {
			o.attempted++
			if why := checkRow(row); why != "" {
				o.failed++
				o.unexpected = append(o.unexpected, fmt.Sprintf("%s ledger row %d: %s", d.name, i, why))
			}
		}
	}
	o.set("sim.kernel_allocs", kernelAllocs, "count")
	o.set("sim.kernel_ordered_share", orderedT/(fastT+orderedT), "ratio")
	o.set("sim.engine_idle_share", 1-busy/wall, "ratio")
	for _, pol := range []string{"prio", "fifo"} {
		o.set("sim.batches_per_rep."+pol, sum(batches[pol])/float64(len(batches[pol])), "count")
		o.set("sim.requests_per_rep."+pol, sum(requests[pol])/float64(len(requests[pol])), "count")
	}
	o.set("trace.overhead_share.sim-grid", traced/plain-1, "ratio")
	return nil
}

func ledgerPriod(e *env, rec *recorder, o *outcome) error {
	pool, _, err := setupPriod(e)
	if err != nil {
		return err
	}
	// The handler alone: ServeHTTP on a recorder, no socket, no queue,
	// then the same request's stages replayed in process with a
	// tenant cache, as the handler runs them.
	reqs := phasePlan(e.seed, "ledger", highRPS, 2)
	srv := serve.New(serve.Config{})
	caches := map[string]*core.Cache{}
	stage := map[string][]float64{}
	for i, q := range reqs {
		id := fmt.Sprintf("handler#%d", i)
		url := "/v1/prioritize"
		if q.dag {
			url += "?format=dag"
		}
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(pool[q.shape].body))
		req.Header.Set(serve.TenantHeader, q.tenant)
		w := httptest.NewRecorder()
		t := time.Now()
		h := rec.begin("serve.handler", id, -1)
		srv.Handler().ServeHTTP(w, req)
		rec.end(h)
		stage["handler"] = append(stage["handler"], ms(time.Since(t)))
		if w.Code != http.StatusOK {
			o.unexpected = append(o.unexpected, fmt.Sprintf("handler request %d: status %d", i, w.Code))
		}

		id = fmt.Sprintf("replay#%d", i)
		root := rec.begin("serve.replay", id, -1)
		h = rec.begin("serve.parse", id, root)
		df, err := dagman.Parse(bytes.NewReader(pool[q.shape].body))
		if err != nil {
			return err
		}
		g, err := df.Graph()
		if err != nil {
			return err
		}
		rec.end(h)
		if caches[q.tenant] == nil {
			caches[q.tenant] = core.NewCache()
		}
		h = rec.begin("serve.prioritize", id, root)
		sched := core.PrioritizeOpts(g, core.Options{Parallel: 1, Cache: caches[q.tenant]})
		rec.end(h)
		if q.dag {
			pr := make(map[string]int, g.NumNodes())
			for v := 0; v < g.NumNodes(); v++ {
				pr[g.Name(v)] = sched.Priority[v]
			}
			h = rec.begin("serve.instrument", id, root)
			df.Instrument(pr)
			rec.end(h)
		}
		rec.end(root)
	}
	self := map[string]float64{}
	for id, names := range selfByID(rec.spans) {
		if strings.HasPrefix(id, "replay#") {
			for name, v := range names {
				self[name] += v
			}
		}
	}
	// Means over the request mix, so the stages add up to the handler.
	n := float64(len(reqs))
	handler := sum(stage["handler"]) / n
	o.set("serve.handler_ms", handler, "ms")
	o.set("serve.parse_ms", self["serve.parse"]/n, "ms")
	o.set("serve.prioritize_ms", self["serve.prioritize"]/n, "ms")
	o.set("serve.instrument_ms", self["serve.instrument"]/n, "ms")
	o.set("serve.encode_ms", handler-(self["serve.parse"]+self["serve.prioritize"]+self["serve.instrument"])/n, "ms")

	// The open loop at the high rate, untraced and then traced.
	plain, err := runPhase(pool, e.seed, "plain", highRPS, 4, newRecorder(false))
	if err != nil {
		return err
	}
	traced, err := runPhase(pool, e.seed, "traced", highRPS, 4, rec)
	if err != nil {
		return err
	}
	chk := &checker{pool: pool, refs: map[[2]int][32]byte{}}
	for _, ph := range []*phase{plain, traced} {
		failed, unexp := chk.check(ph.reqs, ph.ss)
		o.attempted += len(ph.reqs)
		o.failed += failed
		o.unexpected = append(o.unexpected, unexp...)
	}
	// The overhead compares round trips (latency minus the wait for a
	// connection), which queueing in the generator does not inflate.
	var cw, lag, lp, lt []float64
	for i, s := range traced.ss {
		cw, lag = append(cw, ms(s.connWait)), append(lag, ms(s.lag))
		lt, lp = append(lt, ms(s.latency-s.connWait)), append(lp, ms(plain.ss[i].latency-plain.ss[i].connWait))
	}
	o.set("loadgen.conn_wait_ms", median(cw), "ms")
	o.set("loadgen.lag_ms", median(lag), "ms")
	o.set("trace.overhead_share.priod-open", sum(lt)/sum(lp)-1, "ratio")
	var route serve.RouteSnapshot
	for _, r := range traced.snap.Requests {
		if r.Route == "POST /v1/prioritize" {
			route = r
		}
	}
	o.set("serve.server_p50_ms", route.Latency.P50NS/1e6, "ms")
	o.set("serve.server_tail_ms", route.Latency.P90NS/1e6, "ms")
	o.set("serve.shed", float64(traced.snap.Shed.QueueFull+traced.snap.Shed.Deadline), "count")
	o.set("serve.cache_hit_ratio", traced.snap.Cache.HitRate, "ratio")
	o.set("serve.cache_lookups", float64(traced.snap.Cache.Hits+traced.snap.Cache.Misses), "count")
	o.set("serve.rss_mb", float64(traced.snap.Mem.RSSBytes)/(1<<20), "MB")
	return nil
}
