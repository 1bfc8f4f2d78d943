package main

import (
	"bytes"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestLoadOutputFormat(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-dags", "airsn", "-scale", "16", "-clients", "3", "-requests", "5", "-warmup", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d output lines, want 1:\n%s", len(lines), out)
	}
	line := lines[0]
	if !regexp.MustCompile(`^BenchmarkServeLoad/airsn/16/c3 \s`).MatchString(line) {
		t.Fatalf("bench name malformed: %q", line)
	}

	// The line must parse the way cmd/benchjson parses it: name,
	// iteration count, then value/unit pairs.
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		t.Fatalf("line has %d fields, want an even count >= 4: %q", len(f), line)
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil || iters != 3*5 {
		t.Fatalf("iterations = %q, want 15", f[1])
	}
	metrics := make(map[string]float64)
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			t.Fatalf("value %q does not parse: %v", f[i], err)
		}
		metrics[f[i+1]] = v
	}
	for _, unit := range []string{"ns/op", "p50-ns", "p99-ns", "req/s", "rss-bytes", "errors"} {
		if _, ok := metrics[unit]; !ok {
			t.Fatalf("line is missing metric %q: %q", unit, line)
		}
	}
	if metrics["p50-ns"] <= 0 || metrics["p99-ns"] < metrics["p50-ns"] {
		t.Fatalf("want 0 < p50 (%g) <= p99 (%g)", metrics["p50-ns"], metrics["p99-ns"])
	}
	if metrics["rss-bytes"] <= 0 {
		t.Fatal("rss-bytes not reported")
	}
	if metrics["errors"] != 0 {
		t.Fatalf("errors = %g, want 0 against the in-process server", metrics["errors"])
	}
}

func TestBadDagSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dags", "nosuchworkload"}, &buf); err == nil {
		t.Fatal("want an error for an unknown dag spec")
	}
}

func TestRejectsBadFlagValues(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-clients", "0"}, &buf); err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Fatalf("err = %v, want a flag-validation error", err)
	}
}

// TestRunJoinsGoroutines: run must join the in-process server's Serve
// goroutine and every client goroutine, and close idle client
// connections, before returning, so repeated invocations cannot
// accumulate goroutines.
func TestRunJoinsGoroutines(t *testing.T) {
	args := []string{"-dags", "airsn", "-scale", "16", "-clients", "2", "-requests", "2", "-warmup", "1"}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil { // warm pools and lazy singletons
		t.Fatal(err)
	}
	// The warm-up run's connection goroutines unwind asynchronously
	// after Close; take the baseline once the count has stopped falling,
	// or their exit would mask a leak.
	baseline := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= baseline {
			break
		}
		baseline = n
	}
	for i := 0; i < 3; i++ {
		buf.Reset()
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
	}
	// Poll for the same reason.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across three runs: the serve goroutine, a client goroutine or a client connection leaks",
				baseline, runtime.NumGoroutine())
		}
	}
}
