package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/workloads"
)

// testSweep is the shared fixture for the shard/resume tests: a small
// but non-trivial 6-point prio-vs-fifo sweep on a real workload shape.
func testSweep(t *testing.T) (g *dag.Frozen, points []Params, a, b func() Policy, opts ExperimentOptions) {
	t.Helper()
	g = workloads.AIRSN(6)
	var err error
	if a, err = PolicyFactory("prio", g); err != nil {
		t.Fatal(err)
	}
	if b, err = PolicyFactory("fifo", g); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []float64{0.5, 2} {
		for _, bs := range []float64{2, 8, 32} {
			points = append(points, DefaultParams(bit, bs))
		}
	}
	opts = ExperimentOptions{P: 4, Q: 3, Seed: 7, Workers: 2}
	return g, points, a, b, opts
}

// TestCompareGridSharded pins the sharding contract: the union of all
// shards of a sweep covers every point, each point is computed by
// exactly one shard, and every computed row is bit-identical to the
// flat unsharded run.
func TestCompareGridSharded(t *testing.T) {
	g, points, a, b, opts := testSweep(t)
	flat := CompareGrid(g, points, a, b, opts, nil)

	for _, count := range []int{1, 3} {
		covered := make([]bool, len(points))
		for idx := 0; idx < count; idx++ {
			o := opts
			o.Shard = Shard{Index: idx, Count: count}
			var reported []int
			out := CompareGrid(g, points, a, b, o, func(i int, c Comparison) {
				reported = append(reported, i)
				if !reflect.DeepEqual(c, flat[i]) {
					t.Errorf("shard %d/%d: progress row %d differs from flat run", idx, count, i)
				}
			})
			for i := range points {
				owned := i%count == idx
				if owned {
					if covered[i] {
						t.Fatalf("point %d computed by two shards", i)
					}
					covered[i] = true
					if !reflect.DeepEqual(out[i], flat[i]) {
						t.Errorf("shard %d/%d: point %d differs from flat run", idx, count, i)
					}
				} else if !reflect.DeepEqual(out[i], Comparison{}) {
					t.Errorf("shard %d/%d: foreign point %d is not the zero Comparison", idx, count, i)
				}
			}
			for j := 1; j < len(reported); j++ {
				if reported[j] <= reported[j-1] {
					t.Fatalf("shard %d/%d: progress out of order: %v", idx, count, reported)
				}
			}
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("count=%d: point %d covered by no shard", count, i)
			}
		}
	}
}

// TestCompareGridResume interrupts a sweep after k points, persists
// those k through a manifest, reopens it, and finishes the remainder —
// asserting the merged output is bit-identical to an uninterrupted flat
// run, across Workers and shard-count settings (the engine's
// determinism contract extends to both).
func TestCompareGridResume(t *testing.T) {
	g, points, a, b, opts := testSweep(t)
	flat := CompareGrid(g, points, a, b, opts, nil)
	names := [2]string{a().Name(), b().Name()}

	for _, workers := range []int{1, 4} {
		for _, count := range []int{1, 3} {
			path := filepath.Join(t.TempDir(), "grid.ckpt")

			// First launch: run shard 0 with the given worker count, but
			// "crash" by only persisting the first two completed rows.
			o := opts
			o.Workers = workers
			o.Shard = Shard{Index: 0, Count: count}
			man, err := OpenManifest(path, g, points, names[0], names[1], o, false)
			if err != nil {
				t.Fatal(err)
			}
			saved := 0
			CompareGridResume(g, points, a, b, o, nil, func(i int, s PointSample) {
				if saved < 2 {
					if err := man.Append(i, points[i], s); err != nil {
						t.Fatal(err)
					}
					saved++
				}
			}, nil)
			if err := man.Close(); err != nil {
				t.Fatal(err)
			}

			// Resume and run every shard in sequence against the same
			// checkpoint, as the runbook does; the last shard sees the
			// full grid.
			var out []Comparison
			for idx := 0; idx < count; idx++ {
				o.Shard = Shard{Index: idx, Count: count}
				man, err := OpenManifest(path, g, points, names[0], names[1], o, true)
				if err != nil {
					t.Fatalf("workers=%d count=%d shard %d: %v", workers, count, idx, err)
				}
				out = CompareGridResume(g, points, a, b, o, man.Have(), func(i int, s PointSample) {
					if err := man.Append(i, points[i], s); err != nil {
						t.Fatal(err)
					}
				}, nil)
				if err := man.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(out, flat) {
				t.Errorf("workers=%d count=%d: resumed sharded sweep differs from flat run", workers, count)
			}
		}
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

// TestCompareGridResumeJoins: the engine's workers are joined before
// CompareGridResume returns, on a fresh sweep and on a partly resumed
// one.
func TestCompareGridResumeJoins(t *testing.T) {
	g, points, a, b, opts := testSweep(t)
	opts.Workers = 4
	baseline := runtime.NumGoroutine()
	have := make(map[int]PointSample)
	CompareGridResume(g, points, a, b, opts, nil, func(i int, s PointSample) {
		if len(have) < 2 {
			have[i] = s
		}
	}, nil)
	CompareGridResume(g, points, a, b, opts, have, nil, nil)
	expectJoined(t, "CompareGridResume with 4 workers", baseline)
}

// TestManifestRoundTrip checks the hex-float persistence: a PointSample
// written by Append and read back by a resume-mode OpenManifest is
// bit-identical, and the rebuilt Comparison equals the live one.
func TestManifestRoundTrip(t *testing.T) {
	g, points, a, b, opts := testSweep(t)
	names := [2]string{a().Name(), b().Name()}
	path := filepath.Join(t.TempDir(), "grid.ckpt")

	man, err := OpenManifest(path, g, points, names[0], names[1], opts, false)
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[int]PointSample)
	live := CompareGridResume(g, points, a, b, opts, nil, func(i int, s PointSample) {
		written[i] = s
		if err := man.Append(i, points[i], s); err != nil {
			t.Fatal(err)
		}
	}, nil)
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	if len(written) != len(points) {
		t.Fatalf("save fired for %d of %d points", len(written), len(points))
	}

	man, err = OpenManifest(path, g, points, names[0], names[1], opts, true)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	if !reflect.DeepEqual(man.Have(), written) {
		t.Fatal("samples read back differ from samples written")
	}
	// A fully resumed run re-simulates nothing and must still emit the
	// exact rows.
	resumed := CompareGridResume(g, points, a, b, opts, man.Have(), nil, nil)
	if !reflect.DeepEqual(resumed, live) {
		t.Fatal("fully resumed comparisons differ from live run")
	}
}

// TestManifestTornTail checks the crash model: a trailing line cut off
// mid-write is silently discarded and truncated away on resume, and the
// sweep recomputes just that point.
func TestManifestTornTail(t *testing.T) {
	g, points, a, b, opts := testSweep(t)
	names := [2]string{a().Name(), b().Name()}
	path := filepath.Join(t.TempDir(), "grid.ckpt")

	man, err := OpenManifest(path, g, points, names[0], names[1], opts, false)
	if err != nil {
		t.Fatal(err)
	}
	CompareGridResume(g, points, a, b, opts, nil, func(i int, s PointSample) {
		if i < 3 {
			if err := man.Append(i, points[i], s); err != nil {
				t.Fatal(err)
			}
		}
	}, nil)
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last row: chop the file mid-line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	man, err = OpenManifest(path, g, points, names[0], names[1], opts, true)
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	if len(man.Have()) != 2 {
		t.Fatalf("recovered %d rows, want 2 (the torn third row is dropped)", len(man.Have()))
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncation must leave a well-formed file: re-opening again
	// sees the same two rows and a clean tail.
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) == 0 || fixed[len(fixed)-1] != '\n' {
		t.Fatal("truncated manifest does not end at a line boundary")
	}
}

// TestManifestRejectsCorruption checks that damage anywhere but the
// tail refuses the resume instead of silently merging bad rows.
func TestManifestRejectsCorruption(t *testing.T) {
	g, points, a, b, opts := testSweep(t)
	names := [2]string{a().Name(), b().Name()}

	write := func(t *testing.T) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "grid.ckpt")
		man, err := OpenManifest(path, g, points, names[0], names[1], opts, false)
		if err != nil {
			t.Fatal(err)
		}
		CompareGridResume(g, points, a, b, opts, nil, func(i int, s PointSample) {
			if err := man.Append(i, points[i], s); err != nil {
				t.Fatal(err)
			}
		}, nil)
		if err := man.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	expectReject := func(t *testing.T, path, wantSub string) {
		t.Helper()
		_, err := OpenManifest(path, g, points, names[0], names[1], opts, true)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("want error containing %q, got %v", wantSub, err)
		}
	}

	t.Run("flipped-byte-mid-file", func(t *testing.T) {
		path, data := write(t)
		lines := strings.SplitAfter(string(data), "\n")
		mid := []byte(lines[2])
		mid[len(mid)/2] ^= 0x01
		lines[2] = string(mid)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenManifest(path, g, points, names[0], names[1], opts, true); err == nil {
			t.Fatal("corrupted mid-file row must refuse the resume")
		}
	})

	t.Run("duplicate-row", func(t *testing.T) {
		path, data := write(t)
		lines := strings.SplitAfter(string(data), "\n")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")+lines[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		expectReject(t, path, "duplicate row")
	})

	t.Run("different-seed", func(t *testing.T) {
		path, _ := write(t)
		stale := opts
		stale.Seed++
		if _, err := OpenManifest(path, g, points, names[0], names[1], stale, true); err == nil ||
			!strings.Contains(err.Error(), "different sweep") {
			t.Fatalf("stale manifest (other seed) must be rejected, got %v", err)
		}
	})

	t.Run("different-grid", func(t *testing.T) {
		path, _ := write(t)
		fewer := points[:len(points)-1]
		_, err := OpenManifest(path, g, fewer, names[0], names[1], opts, true)
		if err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Fatalf("stale manifest (other grid) must be rejected, got %v", err)
		}
	})

	t.Run("different-policy", func(t *testing.T) {
		path, _ := write(t)
		_, err := OpenManifest(path, g, points, names[0], "RANDOM", opts, true)
		if err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Fatalf("stale manifest (other policy) must be rejected, got %v", err)
		}
	})

	// Workers and Shard must NOT invalidate a checkpoint: they cannot
	// change results, and the whole point of sharding is sharing one.
	t.Run("workers-and-shard-compatible", func(t *testing.T) {
		path, _ := write(t)
		o := opts
		o.Workers = 9
		o.Shard = Shard{Index: 2, Count: 3}
		man, err := OpenManifest(path, g, points, names[0], names[1], o, true)
		if err != nil {
			t.Fatalf("Workers/Shard changes must not invalidate a checkpoint: %v", err)
		}
		if len(man.Have()) != len(points) {
			t.Fatalf("recovered %d rows, want %d", len(man.Have()), len(points))
		}
		man.Close()
	})
}
