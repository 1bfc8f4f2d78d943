// Command perfbench is the repository's end-to-end benchmark. It drives
// the three paths a user waits on — the prio CLI over DAGMan files, the
// Section 4 PRIO-versus-FIFO grid, and the priod daemon under open-loop
// load — from outside, through their public entry points, and checks
// every output it times. See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload prio-corpus|sim-grid|priod-open \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics of the workload; with --trace 1 it holds the
// per-layer ledger of every path, measured with the span recorder on.
// Human-readable report lines precede it; progress goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and only the last set-up's products are measured.
const setupRepeats = 5

// env is what every workload gets: where to build and write, the seed
// and how long to measure.
type env struct {
	root    string // repository root (the current directory)
	work    string // scratch directory for this run, under .bench_build
	seed    uint64
	seconds float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples summarized, for the report; 0 when not a sample statistic
}

// outcome is one workload run: its metrics and its output checks.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// unexpected lists check failures not attributed to a known,
	// counted defect; any entry makes the run incorrect.
	unexpected []string
}

func (o *outcome) set(name string, v float64, unit string) { o.setN(name, v, unit, 0) }

// setN records a metric that summarizes n samples.
func (o *outcome) setN(name string, v float64, unit string, n int) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// endToEnd are the end-to-end metrics BENCHMARK.json lists: what every
// gated workload prints in its result line. pass_a_cpu_ms and
// pass_b_cpu_ms are the median CPU time one pass over the workload's
// two sides costs, throughput_per_cpu_s the work done per CPU second
// (see README.md for why CPU time and not wall time).
var endToEnd = []string{"setup_s", "peak_rss_mb", "throughput_per_cpu_s", "pass_a_cpu_ms", "pass_b_cpu_ms"}

// pathMetrics are the end-to-end metrics of all three paths under
// their own names, which --workload all prints.
var pathMetrics = []string{"setup_s", "fail_ratio", "peak_rss_mb",
	"prio_fresh_jobs_per_s", "prio_reinstrument_jobs_per_s", "sim_reps_per_s",
	"serve_p50_ms_low", "serve_tail_ms_low", "serve_p50_ms_high", "serve_tail_ms_high", "serve_max_rps"}

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
	keys []string // the metrics its result line holds
}

var benchWorkloads = []workload{
	{"prio-corpus", runCorpus, endToEnd},
	{"sim-grid", runSimGrid, endToEnd},
	// priod-open is not in BENCHMARK.json: its latencies are not steady
	// enough on a shared 2-CPU host to gate on (README.md).
	{"priod-open", runPriod, []string{"setup_s", "peak_rss_mb",
		"serve_p50_ms_low", "serve_tail_ms_low", "serve_p50_ms_high", "serve_tail_ms_high", "serve_max_rps"}},
	{"all", runAll, pathMetrics},
}

// runAll runs the three paths in turn and names their end-to-end
// metrics as the paths' users know them.
func runAll(e *env) (*outcome, error) {
	all := &outcome{}
	setup, peak := 0.0, 0.0
	for _, run := range []func(*env) (*outcome, error){runCorpus, runSimGrid, runPriod} {
		o, err := run(e)
		if err != nil {
			return nil, err
		}
		for k, v := range o.metrics {
			if !slices.Contains(endToEnd, k) { // the slots mean something else per path
				all.setN(k, v.Value, v.Unit, v.n)
			}
		}
		setup += o.metrics["setup_s"].Value
		peak = math.Max(peak, o.metrics["peak_rss_mb"].Value)
		all.attempted += o.attempted
		all.failed += o.failed
		all.unexpected = append(all.unexpected, o.unexpected...)
	}
	all.set("setup_s", setup, "s")
	all.set("peak_rss_mb", peak, "MB")
	all.set("fail_ratio", float64(all.failed)/float64(all.attempted), "ratio")
	return all, nil
}

func main() {
	name := flag.String("workload", "", "prio-corpus, sim-grid, priod-open, or all three")
	seed := flag.Uint64("seed", 1, "workload seed: permutes and chooses inputs, never their counts")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer ledger, 0 = untraced end-to-end run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{root: root, work: work, seed: seed, seconds: seconds}

	var out *outcome
	keys := w.keys
	if traced {
		out, err = runLedger(e, w.name)
		keys = nil // every layer metric
	} else {
		out, err = w.run(e)
	}
	if err != nil {
		return err
	}
	return printResult(out, keys)
}

// printResult prints every metric as a report line, then the result
// line holding the metrics named by keys (all of them when keys is nil).
func printResult(o *outcome, keys []string) error {
	names := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := o.metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
		fmt.Printf("# %-40s %16.6f %-6s", k, m.Value, m.Unit)
		if m.n > 0 {
			fmt.Printf(" n=%d", m.n)
		}
		fmt.Println()
	}
	if keys == nil {
		keys = names
	}
	result := map[string]metric{}
	for _, k := range keys {
		m, ok := o.metrics[k]
		if !ok {
			return fmt.Errorf("metric %s was not measured", k)
		}
		result[k] = m
	}
	for _, u := range o.unexpected {
		fmt.Printf("# CHECK FAILED: %s\n", u)
	}
	if o.attempted > 0 {
		fmt.Printf("# fail_ratio %.6g (%d of %d operations)\n", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.unexpected) == 0 && o.attempted > 0, o.attempted, o.failed, result}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// timeSetup runs setup setupRepeats times and returns the median
// duration in seconds; the products of the last call are kept.
func timeSetup(setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return median(ds), nil
}

// settle returns freed heap to the operating system, so resident-set
// peaks measured next reflect the measured work rather than set-up
// garbage.
func settle() { debug.FreeOSMemory() }

// buildProg builds one of the repository's commands into dir.
func buildProg(e *env, pkg, dir string) (string, error) {
	out := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", out, "./"+pkg)
	cmd.Dir = e.root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build %s: %w", pkg, err)
	}
	return out, nil
}

// --- statistics -------------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the CPU time, user plus system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// --- resident set -----------------------------------------------------

// rssSampler polls this process's resident set until stopped and
// reports the peak.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := readRSS()
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// peakMB stops the sampler, waits for it and returns the peak in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak) / (1 << 20)
}

func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
