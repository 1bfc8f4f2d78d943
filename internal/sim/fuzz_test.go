package sim

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/rank"
	"repro/internal/rng"
)

// FuzzKernelReplication is the differential backstop for the pooled
// replication kernel: for an arbitrary small dag, parameter point,
// policy, and pair of seeds, Runner.Run must be bit-identical to the
// allocating sim.Run — including on the second replication, when the
// pooled buffers carry the previous run's high-water marks. The
// allocation census (TestRunKernelZeroAllocs) shows the kernel does not
// allocate; this target shows the pooling it uses to get there never
// changes a result.
//
// Two further references pin the calendar's drain modes (kernel.go):
// every input also runs through runOrdered, the test-only sort-merge
// reference kernel, which must agree bit for bit — in exact mode for
// order-sensitive inputs (RANDOM, the maxjobs throttle, failures,
// rollover), in set mode for Oblivious and FIFO ones without failures
// or rollover. FIFO's set mode completes each bucket in (at, job)
// order, so those inputs also draw the job-time spread from {0.1, 1, 3}
// (muBIT/300 picks it; every muBIT below 300 keeps the paper's 0.1): at
// 3 the 1e-3 job-time floor clamps about a third of the draws, and a
// batch's clamped jobs complete at the same instant. And when the input
// lands in the rank set mode's domain (Oblivious, no failures, no
// rollover), the result is additionally checked against
// runNaiveOblivious, an independent quadratic rescan specification
// that shares no eligibility tracking, event queue, or id relabeling
// with either kernel. The seed corpus lives in
// testdata/fuzz/FuzzKernelReplication.
func FuzzKernelReplication(f *testing.F) {
	f.Add([]byte{0xff, 0x0f}, uint8(0), uint16(100), uint16(400), uint8(0), false, uint64(1), uint64(2))
	f.Add([]byte{0xaa, 0x55, 0x33}, uint8(1), uint16(30), uint16(800), uint8(15), false, uint64(7), uint64(7))
	f.Add([]byte{0x01}, uint8(2), uint16(250), uint16(100), uint8(40), true, uint64(3), uint64(9))
	// Set-mode domain: oblivious policies at zero failure probability,
	// covering tiny and huge batch sizes and both seeds equal.
	f.Add([]byte{0x07, 0xff, 0xf0}, uint8(0), uint16(5), uint16(1599), uint8(0), false, uint64(11), uint64(11))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f}, uint8(4), uint16(299), uint16(1), uint8(0), false, uint64(21), uint64(4))
	// High bit set: composed tie-breaker chains from the ranker
	// registry (rotation and length from the remaining bits).
	f.Add([]byte{0xaa, 0x33}, uint8(0x80), uint16(40), uint16(200), uint8(0), false, uint64(5), uint64(17))
	f.Add([]byte{0xff, 0x0f, 0xf0}, uint8(0xe5), uint16(120), uint16(900), uint8(0), false, uint64(13), uint64(13))
	// FIFO's set mode (polSel 1, no failures, no rollover): the paper's
	// spread, then spreads of 1 and 3, where clamped draws tie.
	f.Add([]byte{0xff, 0x0f, 0xf0}, uint8(1), uint16(40), uint16(300), uint8(0), false, uint64(5), uint64(6))
	f.Add([]byte{0x07, 0xff, 0xff, 0xff, 0x7f}, uint8(1), uint16(301), uint16(50), uint8(2), false, uint64(8), uint64(8))
	f.Add([]byte{0x07, 0xff, 0xff, 0xff, 0x7f}, uint8(1), uint16(650), uint16(1200), uint8(0), false, uint64(9), uint64(10))
	f.Add([]byte{0x05, 0x00}, uint8(8), uint16(899), uint16(799), uint8(0), false, uint64(31), uint64(32))
	// The rank set mode under the same tie-heavy spread.
	f.Add([]byte{0x07, 0xff, 0xff, 0xff, 0x7f}, uint8(0), uint16(620), uint16(1200), uint8(0), false, uint64(9), uint64(10))

	f.Fuzz(func(t *testing.T, edges []byte, polSel uint8, muBIT, muBS uint16, failPct uint8, rollover bool, seed1, seed2 uint64) {
		g := fuzzDag(edges)
		p := Params{
			// Clamp into the validated ranges; the shapes the paper
			// sweeps (Section 4.2) all fall inside these. The low bit of
			// failPct gates failures entirely so half the input space
			// lands in set mode's no-failure domain.
			BatchInterarrival: 0.05 + float64(muBIT%300)/100,
			BatchSize:         0.5 + float64(muBS%1600)/100,
			JobTimeMean:       1.0,
			JobTimeStdDev:     [...]float64{0.1, 1, 3}[muBIT/300%3],
			FailureProb:       float64((failPct>>1)%80) / 100 * float64(failPct&1),
			RolloverWorkers:   rollover,
		}
		// Policy selection spans the whole factory grammar: the low
		// bits index the fixed names (every ranker family included),
		// and the high bit switches to a composed tie-breaker chain
		// drawn from the ranker registry — rotation and length come
		// from the remaining bits, so every component appears in every
		// chain position across the corpus and set mode's
		// bit-identity is fuzzed for ad-hoc compositions too.
		var name string
		if polSel&0x80 != 0 {
			comps := rank.Components()
			length := 2 + int(polSel>>5&0x3) // 2..5 components, repeats allowed
			start := int(polSel) % len(comps)
			parts := make([]string, 0, length)
			for i := 0; i < length; i++ {
				parts = append(parts, comps[(start+i)%len(comps)])
			}
			name = strings.Join(parts, "+")
		} else {
			names := []string{"prio", "fifo", "random", "prio-maxjobs=2", "critpath", "heft", "graphene"}
			name = names[int(polSel)%len(names)]
		}
		factory, err := PolicyFactory(name, g)
		if err != nil {
			t.Fatal(err)
		}

		runner := NewRunner(g)
		pooled := factory()
		for _, seed := range []uint64{seed1, seed2} {
			got := runner.Run(p, pooled, seed)
			want := Run(g, p, factory(), rng.New(seed))
			if got != want {
				t.Fatalf("seed %d: pooled kernel %+v, fresh run %+v", seed, got, want)
			}
			ordered := runOrdered(g, p, factory(), rng.New(seed), nil)
			if got != ordered {
				t.Fatalf("seed %d: kernel %+v, reference kernel %+v", seed, got, ordered)
			}
			if o, ok := pooled.(*Oblivious); ok && p.FailureProb == 0 && !p.RolloverWorkers {
				naive := runNaiveOblivious(g, p, o.order, rng.New(seed))
				if got != naive {
					t.Fatalf("seed %d: kernel %+v, naive rescan %+v", seed, got, naive)
				}
			}
		}
	})
}

// runNaiveOblivious is the executable specification set mode is
// fuzzed against: a deliberately quadratic simulation of the oblivious
// regimen with no shared machinery — eligibility is a full rescan of
// every job's parents on every assignment, and pending completions sit
// in an unsorted slice filtered per window. It consumes randomness in
// the model's defined order (batch size, one job time per assignment
// in rank order, interarrival) and must be bit-identical to both
// kernels on the no-failure, no-rollover domain.
func runNaiveOblivious(g *dag.Frozen, p Params, order []int, src *rng.Source) Metrics {
	n := g.NumNodes()
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	executed := make([]bool, n)
	assigned := make([]bool, n)
	type ev struct {
		at  float64
		job int
	}
	var pending []ev
	nextBatch := 0.0
	done := 0
	last := 0.0
	batches, stalls, requests := 0, 0, 0
	for done < n {
		allAssigned := true
		for v := 0; v < n; v++ {
			if !assigned[v] {
				allAssigned = false
				break
			}
		}
		kept := pending[:0]
		for _, e := range pending {
			if allAssigned || e.at <= nextBatch {
				executed[e.job] = true
				done++
				if e.at > last {
					last = e.at
				}
			} else {
				kept = append(kept, e)
			}
		}
		pending = kept
		if done == n {
			break
		}
		if allAssigned {
			continue
		}

		now := nextBatch
		size := batchSize(src, p.BatchSize)
		batches++
		requests += size
		served := 0
		for i := 0; i < size; i++ {
			best := -1
			for v := 0; v < n; v++ {
				if assigned[v] {
					continue
				}
				ready := true
				for _, u := range g.Parents(v) {
					if !executed[u] {
						ready = false
						break
					}
				}
				if ready && (best < 0 || rank[v] < rank[best]) {
					best = v
				}
			}
			if best < 0 {
				break
			}
			served++
			assigned[best] = true
			d := src.Normal(p.JobTimeMean, p.JobTimeStdDev)
			if d < 1e-3 {
				d = 1e-3
			}
			pending = append(pending, ev{at: now + d, job: best})
		}
		if served == 0 {
			stalls++
		}
		nextBatch = now + src.Exp(p.BatchInterarrival)
	}

	m := Metrics{ExecutionTime: last, Batches: batches, Requests: requests}
	if batches > 0 {
		m.StallProbability = float64(stalls) / float64(batches)
	}
	if requests > 0 {
		m.Utilization = float64(n) / float64(requests)
	}
	return m
}

// fuzzDag decodes an arbitrary byte string into a small dag: the first
// byte picks the node count (1..8), the remaining bits fill the
// strictly-upper-triangular adjacency matrix row by row, so every
// decoded graph is acyclic by construction and every small dag shape is
// reachable.
func fuzzDag(edges []byte) *dag.Frozen {
	n := 1
	if len(edges) > 0 {
		n = 1 + int(edges[0]%8)
		edges = edges[1:]
	}
	g := dag.NewWithCapacity(n)
	for v := 0; v < n; v++ {
		g.AddNode("j" + strconv.Itoa(v))
	}
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit/8 < len(edges) && edges[bit/8]&(1<<(bit%8)) != 0 {
				g.MustAddArc(u, v)
			}
			bit++
		}
	}
	return g.MustFreeze()
}
