package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkRunKernel/airsn/prio-4         	   16413	     72685 ns/op	     13758 reps/s	       0 B/op	       0 allocs/op
BenchmarkRunKernel/sdss/fifo-4          	     168	   7040813 ns/op	       142.0 reps/s	    5120 B/op	       0 allocs/op
BenchmarkEngineGrid-4                   	     100	  11873170 ns/op	     24256 reps/s	   48212 B/op	     290 allocs/op
--- BENCH: some stray output
BenchmarkNoMetrics-4 12
PASS
ok  	repro/internal/sim	9.254s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro/internal/sim" {
		t.Fatalf("header = %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "RunKernel/airsn/prio" || b.Procs != 4 || b.Iterations != 16413 {
		t.Fatalf("first benchmark = %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 72685, "reps/s": 13758, "B/op": 0, "allocs/op": 0,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Fatalf("%s = %g, want %g", unit, got, want)
		}
	}
	if g := rep.Benchmarks[2]; g.Name != "EngineGrid" || g.Metrics["allocs/op"] != 290 {
		t.Fatalf("grid benchmark = %+v", g)
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  	repro/internal/sim	9.254s",
		"Benchmark",                      // no name
		"Benchmarklower 10 5 ns/op",      // lowercase start: not a go benchmark
		"BenchmarkX 0 5 ns/op",           // zero iterations
		"BenchmarkX ten 5 ns/op",         // bad iteration count
		"BenchmarkX 10 nope ns/op",       // bad value
		"BenchmarkX 10 5",                // dangling value without unit
		"--- BENCH: BenchmarkX 10 trace", // indented test chatter
	} {
		if b, ok := parseLine(line); ok {
			t.Fatalf("parseLine(%q) accepted: %+v", line, b)
		}
	}
}

func TestAssertZeroAllocs(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-assert-zero-allocs", "RunKernel/"}, strings.NewReader(sample), &out)
	if err != nil {
		t.Fatalf("kernel benchmarks are zero-alloc, got %v", err)
	}
	out.Reset()
	err = run([]string{"-assert-zero-allocs", "EngineGrid"}, strings.NewReader(sample), &out)
	if err == nil || !strings.Contains(err.Error(), "EngineGrid") {
		t.Fatalf("EngineGrid allocates, want named failure, got %v", err)
	}
	// The JSON is still written before the assertion fails.
	if !strings.Contains(out.String(), "\"benchmarks\"") {
		t.Fatal("JSON not emitted alongside assertion failure")
	}
}

func TestAssertAllocsBaseline(t *testing.T) {
	// Build a baseline from the sample itself: same allocs/op passes at
	// any tolerance >= 1.
	base := filepath.Join(t.TempDir(), "baseline.json")
	var out strings.Builder
	if err := run([]string{"-o", base}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-assert-allocs-baseline", base}, strings.NewReader(sample), &out); err != nil {
		t.Fatalf("identical run regressed against its own baseline: %v", err)
	}
	// A run allocating beyond tolerance fails, naming the benchmark.
	regressed := strings.ReplaceAll(sample, "290 allocs/op", "9999 allocs/op")
	if regressed == sample {
		t.Fatal("sample replace missed")
	}
	err := run([]string{"-assert-allocs-baseline", base}, strings.NewReader(regressed), &out)
	if err == nil || !strings.Contains(err.Error(), "EngineGrid") {
		t.Fatalf("allocs regression passed the baseline gate: %v", err)
	}
	// A benchmark disappearing from the run fails too.
	missing := strings.ReplaceAll(sample, "BenchmarkEngineGrid", "BenchmarkRenamedGrid")
	err = run([]string{"-assert-allocs-baseline", base}, strings.NewReader(missing), &out)
	if err == nil || !strings.Contains(err.Error(), "not in this run") {
		t.Fatalf("missing benchmark passed the baseline gate: %v", err)
	}
	// Bad baseline paths and contents are reported.
	if err := run([]string{"-assert-allocs-baseline", filepath.Join(t.TempDir(), "nope.json")}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestAssertZeroBytes(t *testing.T) {
	var out strings.Builder
	// The sdss/fifo line moves 5120 B/op at 0 allocs/op — exactly the
	// amortized-regrowth shape the bytes gate exists to catch and the
	// allocs gate misses.
	if err := run([]string{"-assert-zero-allocs", "RunKernel/"}, strings.NewReader(sample), &out); err != nil {
		t.Fatalf("allocs gate should pass (both kernels report 0 allocs/op): %v", err)
	}
	err := run([]string{"-assert-zero-bytes", "RunKernel/"}, strings.NewReader(sample), &out)
	if err == nil || !strings.Contains(err.Error(), "sdss/fifo") || !strings.Contains(err.Error(), "5120 B/op") {
		t.Fatalf("bytes gate missed the regrowth: %v", err)
	}
	if err := run([]string{"-assert-zero-bytes", "RunKernel/airsn"}, strings.NewReader(sample), &out); err != nil {
		t.Fatalf("clean benchmark failed the bytes gate: %v", err)
	}
	if err := run([]string{"-assert-zero-bytes", "("}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("bad regexp accepted")
	}
}

func TestAssertNsTrend(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	var out strings.Builder
	if err := run([]string{"-o", base}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-assert-ns-trend", base}, strings.NewReader(sample), &out); err != nil {
		t.Fatalf("identical run regressed against its own baseline: %v", err)
	}
	// +10% stays inside the default 1.15 tolerance.
	slight := strings.ReplaceAll(sample, "72685 ns/op", "79900 ns/op")
	if err := run([]string{"-assert-ns-trend", base}, strings.NewReader(slight), &out); err != nil {
		t.Fatalf("+10%% failed the default 15%% tolerance: %v", err)
	}
	// +20% fails, naming the benchmark; a looser tolerance re-admits it.
	regressed := strings.ReplaceAll(sample, "72685 ns/op", "87300 ns/op")
	err := run([]string{"-assert-ns-trend", base}, strings.NewReader(regressed), &out)
	if err == nil || !strings.Contains(err.Error(), "airsn/prio") {
		t.Fatalf("+20%% passed the trend gate: %v", err)
	}
	if err := run([]string{"-assert-ns-trend", base, "-ns-tolerance", "1.3"}, strings.NewReader(regressed), &out); err != nil {
		t.Fatalf("+20%% failed a 30%% tolerance: %v", err)
	}
	// A smoke run measuring a subset asserts only that subset.
	subset := strings.Join([]string{
		"BenchmarkRunKernel/airsn/prio-4 100 72685 ns/op 0 B/op 0 allocs/op",
		"BenchmarkNewToBaseline-4 100 5 ns/op 0 B/op 0 allocs/op",
	}, "\n") + "\n"
	if err := run([]string{"-assert-ns-trend", base}, strings.NewReader(subset), &out); err != nil {
		t.Fatalf("subset run failed the trend gate: %v", err)
	}
	// With -count 5 a benchmark is judged by its median row: one slow
	// outlier on a noisy host passes, a majority of slow rows fails.
	rows := func(ns ...int) string {
		var b strings.Builder
		for _, v := range ns {
			fmt.Fprintf(&b, "BenchmarkRunKernel/airsn/prio-4 100 %d ns/op 0 B/op 0 allocs/op\n", v)
		}
		return b.String()
	}
	if err := run([]string{"-assert-ns-trend", base}, strings.NewReader(rows(72000, 73000, 150000, 72500, 71900)), &out); err != nil {
		t.Fatalf("one slow outlier in five failed the median gate: %v", err)
	}
	err = run([]string{"-assert-ns-trend", base}, strings.NewReader(rows(72000, 90000, 95000, 72500, 91000)), &out)
	if err == nil || !strings.Contains(err.Error(), "airsn/prio: 90000 ns/op (median of 5)") {
		t.Fatalf("three slow rows in five passed the median gate: %v", err)
	}
	// Bad baselines are reported.
	if err := run([]string{"-assert-ns-trend", filepath.Join(t.TempDir(), "nope.json")}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-o", path}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-o wrote to stdout too: %q", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 || rep.Benchmarks[0].Metrics["reps/s"] != 13758 {
		t.Fatalf("round-trip = %+v", rep)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("PASS\n"), &out); err == nil {
		t.Fatal("benchmark-free input accepted")
	}
	if err := run([]string{"-assert-zero-allocs", "("}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("bad regexp accepted")
	}
	if err := run([]string{"a", "b"}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("two input files accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.txt")}, nil, &out); err == nil {
		t.Fatal("missing input file accepted")
	}
}
