// Command benchjson converts `go test -bench` text output into JSON so
// benchmark runs can be archived and diffed as machine-readable
// trajectories (make bench-sim pipes the kernel benchmarks through it
// into BENCH_sim.json).
//
// Each benchmark result line
//
//	BenchmarkRunKernel/airsn/prio-4  16413  72685 ns/op  13758 reps/s  0 B/op  0 allocs/op
//
// becomes one entry with the trailing -GOMAXPROCS stripped into its own
// field and every value/unit pair (including custom b.ReportMetric
// units) collected into a metrics map. The goos/goarch/pkg/cpu header
// lines are captured once; PASS/ok trailers and unrelated output are
// ignored, so the full `go test` stream can be piped in unfiltered.
//
// -assert-zero-allocs RE exits nonzero if any benchmark whose name
// matches RE reports allocs/op > 0; CI uses it to enforce the
// replication kernel's zero-alloc steady state on every PR.
// -assert-zero-bytes RE is the same gate on B/op — stricter than
// allocs/op alone, since amortized slice regrowth can report 0
// allocs/op (the allocation count rounds down) while still moving
// kilobytes per op.
//
// -assert-ns-trend FILE exits nonzero if any benchmark present in both
// the run and the baseline JSON (a previous benchjson output, e.g. the
// checked-in BENCH_sim.json) reports more than -ns-tolerance times its
// baseline ns/op. Unlike the allocs gates this is a wall-clock
// assertion, so the default tolerance (1.15) leaves room for machine
// noise while still catching real regressions; benchmarks only in the
// baseline are ignored, letting a smoke run assert a subset. When the
// run repeats a benchmark (go test -count N), the gate compares the
// median ns/op of its rows, so one slow run on a noisy host cannot
// fail it alone.
//
// -assert-allocs-baseline FILE exits nonzero if any benchmark present
// in the baseline JSON (a previous benchjson output) is missing from
// the run or reports more than -allocs-tolerance times its baseline
// allocs/op; make bench-core uses it to pin the parse→schedule
// allocation profile of the frozen dag core.
//
// Usage:
//
//	go test ./internal/sim -bench . -benchmem | benchjson [-o out.json]
//	        [-assert-zero-allocs 'RunKernel/'] [-assert-zero-bytes 'RunKernel/']
//	        [-assert-allocs-baseline baseline.json [-allocs-tolerance 1.1]]
//	        [-assert-ns-trend BENCH_sim.json [-ns-tolerance 1.15]]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// trailing -GOMAXPROCS suffix, e.g. "RunKernel/airsn/prio".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix, 0 if absent.
	Procs int `json:"procs,omitempty"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit to value: ns/op, B/op, allocs/op, MB/s, and any
	// custom b.ReportMetric units such as reps/s.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the JSON document: the run's platform header plus every
// benchmark in input order.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one benchmark result line, returning ok=false for
// anything that is not one.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	// Name, iterations, and at least one value/unit pair.
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if name == "" || !(name[0] >= 'A' && name[0] <= 'Z') {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil || iters <= 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: make(map[string]float64)}
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 0 {
			b.Name, b.Procs = name[:i], procs
		}
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// parse reads a `go test -bench` stream into a Report.
func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// assertZeroAllocs returns an error naming every benchmark matching re
// that reports allocs/op > 0.
func assertZeroAllocs(rep Report, re *regexp.Regexp) error {
	var bad []string
	for _, b := range rep.Benchmarks {
		if re.MatchString(b.Name) && b.Metrics["allocs/op"] > 0 {
			bad = append(bad, fmt.Sprintf("%s: %g allocs/op", b.Name, b.Metrics["allocs/op"]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmarks allocate in steady state:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// assertZeroBytes returns an error naming every benchmark matching re
// that reports B/op > 0. It exists separately from assertZeroAllocs
// because testing counts the two independently: a once-per-many-ops
// slice regrowth can round to 0 allocs/op while its bytes stay visible
// in B/op.
func assertZeroBytes(rep Report, re *regexp.Regexp) error {
	var bad []string
	for _, b := range rep.Benchmarks {
		if re.MatchString(b.Name) && b.Metrics["B/op"] > 0 {
			bad = append(bad, fmt.Sprintf("%s: %g B/op", b.Name, b.Metrics["B/op"]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmarks move bytes in steady state:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// assertNsTrend compares the report's ns/op against a baseline Report:
// every benchmark present in both must not exceed tolerance times its
// baseline ns/op, taking the median over the rows that share a name.
// Benchmarks only in the baseline are skipped — smoke runs assert the
// subset they measure — and a benchmark without ns/op on either side
// is ignored.
func assertNsTrend(rep Report, baselinePath string, tolerance float64) error {
	f, err := os.Open(baselinePath)
	if err != nil {
		return fmt.Errorf("-assert-ns-trend: %w", err)
	}
	defer f.Close()
	var base Report
	if err := json.NewDecoder(f).Decode(&base); err != nil {
		return fmt.Errorf("-assert-ns-trend: parse %s: %w", baselinePath, err)
	}
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var names []string
	runs := make(map[string][]float64)
	for _, got := range rep.Benchmarks {
		ns, ok := got.Metrics["ns/op"]
		if !ok {
			continue
		}
		if _, seen := runs[got.Name]; !seen {
			names = append(names, got.Name)
		}
		runs[got.Name] = append(runs[got.Name], ns)
	}
	var bad []string
	for _, name := range names {
		baseNs, ok := baseline[name].Metrics["ns/op"]
		if !ok || baseNs <= 0 {
			continue
		}
		if ns, limit := median(runs[name]), baseNs*tolerance; ns > limit {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op (median of %d), baseline %.0f (limit %.0f, +%.0f%%)",
				name, ns, len(runs[name]), baseNs, limit, (ns/baseNs-1)*100))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("ns/op regressed against %s:\n  %s", baselinePath, strings.Join(bad, "\n  "))
	}
	return nil
}

// median returns the median of xs (the mean of the middle two when
// len(xs) is even), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// assertAllocsBaseline compares the report's allocs/op against a
// checked-in baseline Report (a previous benchjson output): every
// benchmark present in the baseline must appear in the report and must
// not allocate more than tolerance times its baseline allocs/op.
// allocs/op is the one benchmark metric that is deterministic for a
// fixed workload, so the gate needs no statistical slack beyond the
// tolerance — ns/op and derived throughputs are reported but never
// asserted.
func assertAllocsBaseline(rep Report, baselinePath string, tolerance float64) error {
	f, err := os.Open(baselinePath)
	if err != nil {
		return fmt.Errorf("-assert-allocs-baseline: %w", err)
	}
	defer f.Close()
	var base Report
	if err := json.NewDecoder(f).Decode(&base); err != nil {
		return fmt.Errorf("-assert-allocs-baseline: parse %s: %w", baselinePath, err)
	}
	current := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		current[b.Name] = b
	}
	var bad []string
	for _, want := range base.Benchmarks {
		got, ok := current[want.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: in baseline but not in this run", want.Name))
			continue
		}
		limit := want.Metrics["allocs/op"] * tolerance
		if got.Metrics["allocs/op"] > limit {
			bad = append(bad, fmt.Sprintf("%s: %g allocs/op, baseline %g (limit %.0f)",
				want.Name, got.Metrics["allocs/op"], want.Metrics["allocs/op"], limit))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("allocs/op regressed against %s:\n  %s", baselinePath, strings.Join(bad, "\n  "))
	}
	return nil
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "", "write JSON here instead of stdout")
	zeroRE := fs.String("assert-zero-allocs", "", "fail if a benchmark matching this regexp reports allocs/op > 0")
	zeroBytesRE := fs.String("assert-zero-bytes", "", "fail if a benchmark matching this regexp reports B/op > 0")
	baseline := fs.String("assert-allocs-baseline", "", "fail if allocs/op regresses against this baseline JSON (a previous benchjson output)")
	tolerance := fs.Float64("allocs-tolerance", 1.10, "allowed allocs/op growth factor for -assert-allocs-baseline")
	nsTrend := fs.String("assert-ns-trend", "", "fail if ns/op regresses against this baseline JSON (a previous benchjson output)")
	nsTolerance := fs.Float64("ns-tolerance", 1.15, "allowed ns/op growth factor for -assert-ns-trend")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	if *zeroRE != "" {
		re, err := regexp.Compile(*zeroRE)
		if err != nil {
			return fmt.Errorf("-assert-zero-allocs: %w", err)
		}
		if err := assertZeroAllocs(rep, re); err != nil {
			return err
		}
	}
	if *zeroBytesRE != "" {
		re, err := regexp.Compile(*zeroBytesRE)
		if err != nil {
			return fmt.Errorf("-assert-zero-bytes: %w", err)
		}
		if err := assertZeroBytes(rep, re); err != nil {
			return err
		}
	}
	if *baseline != "" {
		if err := assertAllocsBaseline(rep, *baseline, *tolerance); err != nil {
			return err
		}
	}
	if *nsTrend != "" {
		return assertNsTrend(rep, *nsTrend, *nsTolerance)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
