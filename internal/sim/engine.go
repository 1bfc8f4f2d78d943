// The whole-grid experiment engine. The earlier driver parallelized one
// grid point at a time: each measure call spun up its own worker pool,
// ran 2·P·Q replications, and tore the pool down before the next point
// started, so the tail of every point ran under-subscribed and the
// pool-start/stop cost was paid 7×9×2 times per figure. Here the entire
// grid — every point × both policies × all replications — is one flat
// work list claimed in chunks through an atomic counter by a single
// pool of workers that lives for the whole sweep. Each worker owns a
// Runner (pooled kernel state, kernel.go) and one reusable instance of
// each policy, so the steady-state replication loop does not allocate.
//
// Determinism contract: seeds are pre-derived exactly as the
// point-at-a-time driver derived them — per point, a base source
// rng.New(opts.Seed) is Split() once per policy and each policy's P·Q
// replication seeds are drawn sequentially from its stream — and every
// replication writes to its own pre-assigned index. Which worker runs
// which replication, and in what order, therefore cannot affect any
// result: grid rows are bit-identical across Workers settings and to
// the pre-engine output (the differential and determinism tests in
// engine_test.go pin both).
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/stats"
)

// gridBlock is the raw-measurement store for one (point, policy) pair:
// P·Q pre-derived seeds and the per-replication metric slots they fill.
type gridBlock struct {
	params             Params
	side               int // index into the two policy factories
	seeds              []uint64
	execT, stall, util []float64
}

// PointSample holds the empirical sampling distributions of one grid
// point — three metrics × two policies, P values each — exactly the
// state a checkpoint manifest persists per completed point. Summaries
// and ratio intervals are deterministic pure functions of these
// distributions (stats.Summarize, stats.RatioInterval), so a Comparison
// rebuilt from a PointSample is bit-identical to the one computed live.
type PointSample struct {
	ExecTime, Stalling, Utilization [2][]float64 // [side][sample], side 0 = A
}

// comparisonFromSample rebuilds a point's Comparison from persisted
// sampling distributions. It must aggregate exactly as finalizeTo's
// live path does — same Summarize, same RatioInterval — so resumed rows
// are indistinguishable from computed ones.
func comparisonFromSample(p Params, names [2]string, s PointSample, opts ExperimentOptions) Comparison {
	var ms [2]PolicyMeasurements
	for side := 0; side < 2; side++ {
		pm := PolicyMeasurements{
			Name:        names[side],
			ExecTime:    s.ExecTime[side],
			Stalling:    s.Stalling[side],
			Utilization: s.Utilization[side],
		}
		pm.ExecSummary = stats.Summarize(pm.ExecTime)
		pm.StallSummary = stats.Summarize(pm.Stalling)
		pm.UtilSummary = stats.Summarize(pm.Utilization)
		ms[side] = pm
	}
	return Comparison{
		Params:      p,
		A:           ms[0],
		B:           ms[1],
		ExecTime:    stats.RatioInterval(ms[0].ExecTime, ms[1].ExecTime, opts.Confidence),
		Stalling:    stats.RatioInterval(ms[0].Stalling, ms[1].Stalling, opts.Confidence),
		Utilization: stats.RatioInterval(ms[0].Utilization, ms[1].Utilization, opts.Confidence),
	}
}

// CompareGrid measures policies a and b (numerator, denominator) at
// every parameter point and returns one Comparison per point, in order.
// All points share opts.Seed, matching a loop of Compare calls: the
// i-th returned Comparison is bit-identical to Compare(g, points[i], a,
// b, opts). Execution, however, is flat: all points × both policies ×
// all replications form one work list served by a single worker pool,
// so no point's tail leaves workers idle.
//
// opts.Shard restricts computation to the points this shard owns
// (index % Count == Index); the other points come back as zero
// Comparisons and are not reported to progress. Use CompareGridResume
// to fill them from a checkpoint.
//
// progress, when non-nil, is invoked as progress(i, comparison) for
// each covered point in index order (point i is reported only after
// every covered point below i), from a worker goroutine; it must not
// call back into the engine.
func CompareGrid(g *dag.Frozen, points []Params, a, b func() Policy, opts ExperimentOptions, progress func(int, Comparison)) []Comparison {
	return CompareGridResume(g, points, a, b, opts, nil, nil, progress)
}

// CompareGridResume is CompareGrid with checkpoint support: points
// present in have are not recomputed — their Comparisons are rebuilt
// from the persisted sampling distributions — and each newly computed
// point is handed to save (when non-nil) as soon as it completes, in
// index order, so an interrupted sweep can persist its progress row by
// row. save and progress are serialized under the engine's lock and
// must not call back into the engine.
//
// A point is covered when this shard owns it or have already holds it;
// covered points are reported to progress in index order. The returned
// slice always has len(points) entries, with zero Comparisons at
// uncovered indices. Running every shard of a sweep against one shared
// checkpoint therefore yields, on the last shard, the complete grid —
// bit-identical to a single unsharded uninterrupted run (the
// determinism contract above extends to Shard and to resume, and the
// tests in engine_test.go pin it).
func CompareGridResume(g *dag.Frozen, points []Params, a, b func() Policy, opts ExperimentOptions, have map[int]PointSample, save func(int, PointSample), progress func(int, Comparison)) []Comparison {
	opts = opts.normalized()
	for _, p := range points {
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	if len(points) == 0 {
		return nil
	}
	factories := [2]func() Policy{a, b}
	names := [2]string{a().Name(), b().Name()}
	reps := opts.P * opts.Q

	// Partition the grid: resumed points need no work, owned points are
	// computed, foreign points (another shard's, not yet checkpointed)
	// are left untouched.
	const (
		foreign = iota
		resumed
		computed
	)
	kind := make([]int, len(points))
	pointBlock := make([]int, len(points)) // index into blocks, -1 when not computed
	nCompute := 0
	for i := range points {
		pointBlock[i] = -1
		if s, ok := have[i]; ok {
			for side := 0; side < 2; side++ {
				if len(s.ExecTime[side]) != opts.P || len(s.Stalling[side]) != opts.P || len(s.Utilization[side]) != opts.P {
					panic(fmt.Sprintf("sim: resumed point %d has %d/%d/%d samples, want P=%d",
						i, len(s.ExecTime[side]), len(s.Stalling[side]), len(s.Utilization[side]), opts.P))
				}
			}
			kind[i] = resumed
			continue
		}
		if i%opts.Shard.Count == opts.Shard.Index {
			kind[i] = computed
			pointBlock[i] = 2 * nCompute
			nCompute++
		}
	}

	// Pre-derive every replication seed exactly as the sequential
	// driver did, before any simulation starts. Each point's base
	// source depends on opts.Seed alone, so skipping a point cannot
	// shift any other point's seeds.
	blocks := make([]gridBlock, 2*nCompute)
	blockPoint := make([]int, 2*nCompute) // block index -> point index
	for i, p := range points {
		if kind[i] != computed {
			continue
		}
		base := rng.New(opts.Seed)
		for side := 0; side < 2; side++ {
			stream := base.Split()
			blk := &blocks[pointBlock[i]+side]
			blockPoint[pointBlock[i]+side] = i
			blk.params = p
			blk.side = side
			blk.seeds = make([]uint64, reps)
			for j := range blk.seeds {
				blk.seeds[j] = stream.Uint64()
			}
			blk.execT = make([]float64, reps)
			blk.stall = make([]float64, reps)
			blk.util = make([]float64, reps)
		}
	}

	total := 2 * nCompute * reps
	workers := opts.Workers
	if workers > total {
		workers = total
	}

	out := make([]Comparison, len(points))
	var next atomic.Int64
	var mu sync.Mutex
	pendingReps := make([]int, len(points)) // remaining replications per point
	for i := range pendingReps {
		if kind[i] == computed {
			pendingReps[i] = 2 * reps
		}
	}
	frontier := 0 // next point index to finalize, in order

	// finalizeTo assembles and reports every consecutive completed
	// point. Called with mu held.
	finalizeTo := func() {
		for frontier < len(points) && pendingReps[frontier] == 0 {
			i := frontier
			frontier++
			switch kind[i] {
			case foreign:
				continue // another shard's point; leave the zero value
			case resumed:
				out[i] = comparisonFromSample(points[i], names, have[i], opts)
			case computed:
				ba, bb := &blocks[pointBlock[i]], &blocks[pointBlock[i]+1]
				ma := assembleMeasurements(names[0], ba.execT, ba.stall, ba.util, opts)
				mb := assembleMeasurements(names[1], bb.execT, bb.stall, bb.util, opts)
				out[i] = Comparison{
					Params:      points[i],
					A:           ma,
					B:           mb,
					ExecTime:    stats.RatioInterval(ma.ExecTime, mb.ExecTime, opts.Confidence),
					Stalling:    stats.RatioInterval(ma.Stalling, mb.Stalling, opts.Confidence),
					Utilization: stats.RatioInterval(ma.Utilization, mb.Utilization, opts.Confidence),
				}
				if save != nil {
					save(i, PointSample{
						ExecTime:    [2][]float64{ma.ExecTime, mb.ExecTime},
						Stalling:    [2][]float64{ma.Stalling, mb.Stalling},
						Utilization: [2][]float64{ma.Utilization, mb.Utilization},
					})
				}
			}
			if progress != nil {
				progress(i, out[i])
			}
		}
	}

	if total == 0 {
		// Nothing to simulate (everything resumed or foreign): report
		// the resumed rows and return.
		mu.Lock()
		finalizeTo()
		mu.Unlock()
		return out
	}

	// Chunked claiming: big enough to amortize the atomic, small enough
	// that the final stragglers spread across workers.
	chunk := total / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := NewRunner(g)
			var pols [2]Policy
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= total {
					return
				}
				end := start + chunk
				if end > total {
					end = total
				}
				for r := start; r < end; r++ {
					blk := &blocks[r/reps]
					j := r % reps
					pol := pols[blk.side]
					if pol == nil {
						pol = factories[blk.side]()
						pols[blk.side] = pol
					}
					m := runner.Run(blk.params, pol, blk.seeds[j])
					blk.execT[j] = m.ExecutionTime
					blk.stall[j] = m.StallProbability
					blk.util[j] = m.Utilization
				}
				// Credit the completed replications to their points and
				// report any points that just finished.
				mu.Lock()
				for bi := start / reps; bi <= (end-1)/reps; bi++ {
					lo, hi := bi*reps, (bi+1)*reps
					if lo < start {
						lo = start
					}
					if hi > end {
						hi = end
					}
					pendingReps[blockPoint[bi]] -= hi - lo
				}
				finalizeTo()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
