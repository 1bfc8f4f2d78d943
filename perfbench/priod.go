package main

// The priod-open workload: seeded Poisson arrivals, each a POST to
// /v1/prioritize on an in-process serve.Server over loopback, sent
// open-loop over at most nproc keep-alive connections. Each request is
// timed from when it was due, so a backlog in the generator counts.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The open-loop operating points, calibrated once (README.md, "Why
// priod-open is not gated") at about 0.5x and 0.9x of the capacity
// the ladder measured on the reference host and then frozen, together
// with the latency limit and the tail percentile it applies to.
const (
	lowRPS     = 150.0
	highRPS    = 270.0
	tailQ      = 0.90
	limitMS    = 40.0
	tenants    = 4
	poolShapes = 96 // distinct request shapes
	fixedSubs  = 6  // sub-phases per fixed rate
	ladderSubs = 2  // sub-phases per ladder rate
)

// ladderRPS is the fixed rate ladder that finds serve_max_rps.
var ladderRPS = []float64{180, 210, 240, 270, 300, 330, 360, 390}

// subSeconds splits a run: the two fixed rates take half of it and the
// ladder 40%, in sub-phases of these lengths.
func subSeconds(seconds float64) (fixed, rung float64) {
	return seconds * 0.5 / (2 * fixedSubs), seconds * 0.4 / float64(len(ladderRPS)*ladderSubs)
}

// shape is one request body and the dag it encodes.
type shape struct {
	name string
	body []byte
	jobs int
	arcs int
}

// genPool builds the request shapes: scaled paper dags and
// workloads.Layered/TileField draws of ~100-3000 jobs. The pool is the
// same for every seed, so job and arc counts never depend on it.
func genPool() []*shape {
	var paper []*shape
	for _, p := range []struct {
		name   string
		scales []int
	}{
		{"airsn", []int{1, 2, 4, 8}},
		{"inspiral", []int{1, 2, 4, 8, 16}},
		{"montage", []int{4, 12, 16, 32}},
		{"sdss", []int{16, 24, 32, 48, 64}},
	} {
		for _, s := range p.scales {
			g, err := workloads.ByName(p.name, s)
			if err != nil {
				panic(err)
			}
			paper = append(paper, newShape(fmt.Sprintf("%s/%d", p.name, s), g))
		}
	}
	r := rng.New(0x5eed)
	var pool []*shape
	for i := 0; len(pool) < poolShapes; i++ {
		if i%8 == 0 && i/8 < len(paper) {
			pool = append(pool, paper[i/8])
			continue
		}
		var g *dag.Frozen
		var name string
		if i%2 == 0 {
			layers, width := 4+r.Intn(13), 25+r.Intn(150)
			g = workloads.Layered(r, layers, width, 2/float64(width))
			name = fmt.Sprintf("layered/%dx%d", layers, width)
		} else {
			tiles, s, t := 4+r.Intn(36), 8+r.Intn(17), 8+r.Intn(17)
			g = workloads.TileField(r, tiles, s, t, 3+r.Intn(3), r.Intn(3) == 0)
			name = fmt.Sprintf("tiles/%dx%d+%d", tiles, s, t)
		}
		pool = append(pool, newShape(name, g))
	}
	return pool
}

func newShape(name string, g *dag.Frozen) *shape {
	return &shape{name: name, body: []byte(dagman.FromGraph(g, nil).String()), jobs: g.NumNodes(), arcs: g.NumArcs()}
}

// request is one scheduled POST.
type request struct {
	due    time.Duration // offset from the phase start
	shape  int
	tenant string
	dag    bool // format=dag (else json)
}

// phasePlan lays out n requests at rate rps: Poisson arrivals; each of
// the 4 tenants sends n/8 distinct shapes, spread evenly over the pool,
// twice — first fresh and later repeated; a quarter of requests ask for
// format=dag. The seed moves arrival times, order, pairing and formats;
// the counts and the multiset of shapes are fixed.
func phasePlan(seed uint64, label string, rps float64, seconds float64) []request {
	r := rng.New(seed)
	n := int(rps*seconds) / 8 * 8
	slots := r.Perm(n)
	reqs := make([]request, n)
	for k := 0; k < n/2; k++ {
		a, b := slots[2*k], slots[2*k+1]
		if a > b {
			a, b = b, a
		}
		t := k % tenants
		tenant := fmt.Sprintf("%s-t%d", label, t)
		sh := k / tenants * poolShapes / (n / 8)
		reqs[a] = request{shape: sh, tenant: tenant}
		reqs[b] = request{shape: sh, tenant: tenant} // the repeat
	}
	for _, i := range r.Perm(n)[:n/4] {
		reqs[i].dag = true
	}
	var at float64
	for i := range reqs {
		at += r.Exp(1 / rps)
		reqs[i].due = time.Duration(at * float64(time.Second))
	}
	return reqs
}

// sample is what the generator observed for one request.
type sample struct {
	latency  time.Duration // due -> response read
	connWait time.Duration // due -> a connection picked it up
	lag      time.Duration // due -> the generator released it
	status   int
	digest   [32]byte
	err      error
}

// daemon is an in-process priod on a loopback port.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	errc   chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	conns := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	go func() { d.errc <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (d *daemon) post(pool []*shape, q request) (status int, digest [32]byte, err error) {
	url := d.url + "/v1/prioritize"
	if q.dag {
		url += "?format=dag"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(pool[q.shape].body))
	if err != nil {
		return 0, digest, err
	}
	req.Header.Set(serve.TenantHeader, q.tenant)
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, digest, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return resp.StatusCode, digest, err
	}
	copy(digest[:], h.Sum(nil))
	return resp.StatusCode, digest, nil
}

// openLoop releases each request at its due time to a queue that
// runtime.NumCPU() connections drain, and waits for all of them.
func (d *daemon) openLoop(pool []*shape, reqs []request, rec *recorder, label string) []sample {
	out := make([]sample, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := reqs[i]
				picked := time.Since(start)
				id := label + "#" + strconv.Itoa(i)
				root := rec.add("loadgen.request", id, -1, start.Add(q.due), 0)
				rec.add("loadgen.conn_wait", id, root, start.Add(q.due), picked-q.due)
				h := rec.begin("serve.http", id, root)
				status, digest, err := d.post(pool, q)
				rec.end(h)
				done := time.Since(start)
				rec.setEnd(root, start.Add(done))
				out[i].latency, out[i].connWait = done-q.due, picked-q.due
				out[i].status, out[i].digest, out[i].err = status, digest, err
			}
		}()
	}
	for i, q := range reqs {
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].lag = time.Since(start) - q.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// reference is the in-process answer for one (shape, format): Parse,
// Graph, PrioritizeOpts, then the JSON encoding or File.Instrument.
func reference(s *shape, asDag bool) ([32]byte, error) {
	f, err := dagman.Parse(bytes.NewReader(s.body))
	if err != nil {
		return [32]byte{}, err
	}
	g, err := f.Graph()
	if err != nil {
		return [32]byte{}, err
	}
	sched := core.PrioritizeOpts(g, core.Options{Parallel: 1})
	if asDag {
		pr := make(map[string]int, g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			pr[g.Name(v)] = sched.Priority[v]
		}
		return sha256.Sum256([]byte(f.Instrument(pr))), nil
	}
	return sha256.Sum256(encodeSchedule(g, sched)), nil
}

// encodeSchedule writes the /v1/prioritize JSON document as docs/API.md
// specifies it: counts, execution order, then priorities in node order.
func encodeSchedule(g *dag.Frozen, sched *core.Schedule) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"jobs":%d,"arcs":%d,"components":%d,"shortcuts_removed":%d,"order":[`,
		g.NumNodes(), g.NumArcs(), len(sched.Components), len(sched.Decomposition.Shortcuts))
	for i, v := range sched.Order {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(g.Name(v)))
	}
	b.WriteString(`],"priorities":{`)
	for v := 0; v < g.NumNodes(); v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", strconv.Quote(g.Name(v)), sched.Priority[v])
	}
	b.WriteString("}}\n")
	return b.Bytes()
}

// checker compares responses with references computed once per
// (shape, format).
type checker struct {
	pool []*shape
	refs map[[2]int][32]byte
}

func (c *checker) check(reqs []request, ss []sample) (failed int, unexpected []string) {
	for i, s := range ss {
		q := reqs[i]
		key := [2]int{q.shape, 0}
		if q.dag {
			key[1] = 1
		}
		want, ok := c.refs[key]
		if !ok {
			var err error
			if want, err = reference(c.pool[q.shape], q.dag); err != nil {
				unexpected = append(unexpected, fmt.Sprintf("reference for %s: %v", c.pool[q.shape].name, err))
				failed++
				continue
			}
			c.refs[key] = want
		}
		switch {
		case s.err != nil:
			unexpected = append(unexpected, fmt.Sprintf("request %d: %v", i, s.err))
		case s.status != http.StatusOK:
			unexpected = append(unexpected, fmt.Sprintf("request %d (%s): status %d", i, c.pool[q.shape].name, s.status))
		case s.digest != want:
			unexpected = append(unexpected, fmt.Sprintf("request %d (%s, dag=%v): body differs from the in-process reference", i, c.pool[q.shape].name, q.dag))
		default:
			continue
		}
		failed++
	}
	if len(unexpected) > 5 {
		unexpected = append(unexpected[:5], fmt.Sprintf("... %d more", len(unexpected)-5))
	}
	return failed, unexpected
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	n, failed int
	p50, tail float64 // ms, over every request; a failure misses any limit
	backlog   float64 // ms, median latency of the last tenth of requests
}

func phaseSummary(ph *phase, failed int) phaseStats {
	var lat, end []float64
	last := ph.reqs[len(ph.reqs)-1].due
	for i, s := range ph.ss {
		l := ms(s.latency)
		if s.err != nil || s.status != http.StatusOK {
			l = math.Inf(1)
		}
		lat = append(lat, l)
		if ph.reqs[i].due >= last*9/10 {
			end = append(end, l)
		}
	}
	return phaseStats{
		n: len(ph.ss), failed: failed,
		p50: median(lat), tail: quantile(lat, tailQ), backlog: median(end),
	}
}

// rateResult is one offered rate measured as several sub-phases; each
// statistic is the median over sub-phases, so a disturbance that hits
// a minority of them does not decide it.
type rateResult struct {
	rps       float64
	n, failed int
	p50, tail float64
	backlog   float64
}

func summarizeRate(rps float64, stats []phaseStats) rateResult {
	r := rateResult{rps: rps}
	var p50, tail, backlog []float64
	for _, s := range stats {
		r.n += s.n
		r.failed += s.failed
		p50, tail, backlog = append(p50, s.p50), append(tail, s.tail), append(backlog, s.backlog)
	}
	r.p50, r.tail, r.backlog = median(p50), median(tail), median(backlog)
	return r
}

// maxRate is serve_max_rps. Each rung's score is its tail, or its
// backlog when the backlog is worse (a growing backlog makes the last
// requests wait longest); scores are made non-decreasing in the rate by
// an isotonic fit, and the rate where the fit crosses the limit is
// interpolated between rungs. A rung with a failed request misses.
func maxRate(rungs []rateResult) float64 {
	y := make([]float64, len(rungs))
	for i, r := range rungs {
		y[i] = math.Min(math.Max(r.tail, r.backlog), 10*limitMS)
		if r.failed > 0 {
			y[i] = 10 * limitMS
		}
	}
	fit := isotonic(y)
	for i, f := range fit {
		if f <= limitMS {
			continue
		}
		if i == 0 {
			return 0
		}
		lo, hi := rungs[i-1].rps, rungs[i].rps
		return lo + (hi-lo)*(limitMS-fit[i-1])/(f-fit[i-1])
	}
	return rungs[len(rungs)-1].rps
}

// isotonic is the least-squares non-decreasing fit of y (pool adjacent
// violators).
func isotonic(y []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, v := range y {
		bs = append(bs, block{v, 1})
		for len(bs) > 1 && bs[len(bs)-2].sum/float64(bs[len(bs)-2].n) > bs[len(bs)-1].sum/float64(bs[len(bs)-1].n) {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	var fit []float64
	for _, b := range bs {
		for k := 0; k < b.n; k++ {
			fit = append(fit, b.sum/float64(b.n))
		}
	}
	return fit
}

// phase is one open-loop run on its own daemon, so every phase's
// tenant caches start empty and "fresh" shapes are fresh.
type phase struct {
	rps  float64
	reqs []request
	ss   []sample
	snap serve.Snapshot
}

func runPhase(pool []*shape, seed uint64, label string, rps, seconds float64, rec *recorder) (*phase, error) {
	ph := &phase{rps: rps, reqs: phasePlan(seed, label, rps, seconds)}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	ph.ss = d.openLoop(pool, ph.reqs, rec, label)
	ph.snap = d.srv.Metrics()
	return ph, d.stop()
}

// setupPriod generates the request pool, then starts a daemon and warms
// it up, as every phase does without the warm-up.
func setupPriod(e *env) ([]*shape, float64, error) {
	var pool []*shape
	setup, err := timeSetup(func() error {
		pool = genPool()
		warm, err := runPhase(pool, e.seed, "warmup", 100, 0.32, newRecorder(false))
		if err != nil {
			return err
		}
		for _, s := range warm.ss {
			if s.err != nil || s.status != http.StatusOK {
				return fmt.Errorf("warm-up request failed: %v status %d", s.err, s.status)
			}
		}
		return nil
	})
	return pool, setup, err
}

// rate is one offered rate of a run and the sub-phases that measured it.
type rate struct {
	rps    float64
	phases []*phase
}

func runPriod(e *env) (*outcome, error) {
	pool, setup, err := setupPriod(e)
	if err != nil {
		return nil, err
	}
	settle()
	rss := startRSS()
	start := time.Now()
	fixedSec, rungSec := subSeconds(e.seconds)
	rates := []*rate{{rps: lowRPS}, {rps: highRPS}}
	for _, rps := range ladderRPS {
		rates = append(rates, &rate{rps: rps})
	}
	// The fixed rates alternate, and the ladder's sub-phases, in rising
	// order, are interleaved with them, so every rate samples the whole
	// run and a disturbance of a few seconds reaches only a minority of
	// any rate's sub-phases.
	type step struct {
		r       *rate
		seconds float64
	}
	var fixed, ladder, steps []step
	for k := 0; k < fixedSubs; k++ {
		fixed = append(fixed, step{rates[0], fixedSec}, step{rates[1], fixedSec})
	}
	for _, r := range rates[2:] {
		for k := 0; k < ladderSubs; k++ {
			ladder = append(ladder, step{r, rungSec})
		}
	}
	for i, j := 0, 0; i < len(fixed) || j < len(ladder); {
		// Keep the two sequences' progress level.
		if j == len(ladder) || (i < len(fixed) && i*len(ladder) <= j*len(fixed)) {
			steps = append(steps, fixed[i])
			i++
		} else {
			steps = append(steps, ladder[j])
			j++
		}
	}
	for i, st := range steps {
		label := fmt.Sprintf("r%.0f.%d", st.r.rps, len(st.r.phases))
		ph, err := runPhase(pool, e.seed*1000+uint64(i), label, st.r.rps, st.seconds, newRecorder(false))
		if err != nil {
			return nil, err
		}
		st.r.phases = append(st.r.phases, ph)
	}
	peak := rss.peakMB()
	logf("priod-open: measured in %.1fs", time.Since(start).Seconds())

	// Check every response, then summarize with failures counted.
	o := &outcome{}
	chk := &checker{pool: pool, refs: map[[2]int][32]byte{}}
	results := make([]rateResult, len(rates))
	var jobs, arcs int
	for i, r := range rates {
		var stats []phaseStats
		for _, ph := range r.phases {
			for _, q := range ph.reqs {
				jobs, arcs = jobs+pool[q.shape].jobs, arcs+pool[q.shape].arcs
			}
			failed, unexp := chk.check(ph.reqs, ph.ss)
			o.attempted += len(ph.reqs)
			o.failed += failed
			o.unexpected = append(o.unexpected, unexp...)
			stats = append(stats, phaseSummary(ph, failed))
		}
		results[i] = summarizeRate(r.rps, stats)
	}
	for _, r := range results[2:] {
		logf("priod-open: rung %.0f rps: p50 %.2f ms, tail %.2f ms, backlog %.2f ms", r.rps, r.p50, r.tail, r.backlog)
	}
	maxRPS := maxRate(results[2:])
	if maxRPS == 0 {
		logf("priod-open: no ladder rate met the %.0f ms limit on the p%.0f latency", limitMS, 100*tailQ)
	}
	low, high := results[0], results[1]
	// The tail is the p90 (tailQ); every statistic is a median over
	// sub-phases of the requests' latencies.
	o.setN("setup_s", setup, "s", setupRepeats)
	o.set("peak_rss_mb", peak, "MB")
	o.setN("serve_p50_ms_low", low.p50, "ms", low.n)
	o.setN("serve_tail_ms_low", low.tail, "ms", low.n)
	o.setN("serve_p50_ms_high", high.p50, "ms", high.n)
	o.setN("serve_tail_ms_high", high.tail, "ms", high.n)
	o.setN("serve_max_rps", maxRPS, "1/s", len(ladderRPS))
	o.set("requests", float64(o.attempted), "count")
	o.set("request_jobs", float64(jobs), "count")
	o.set("request_arcs", float64(arcs), "count")
	return o, nil
}
