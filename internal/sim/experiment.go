package sim

import (
	"fmt"
	"runtime"

	"repro/internal/dag"
	"repro/internal/stats"
)

// ExperimentOptions configures the Section 4.2 measurement procedure.
type ExperimentOptions struct {
	// P is the number of samples in the empirical sampling
	// distribution; Q is the number of measurements averaged per
	// sample. The paper uses P = 300, Q = 300; the defaults are scaled
	// down for laptop runs and can be raised with flags.
	P, Q int
	// Confidence is the interval confidence in percent (95 in the
	// paper).
	Confidence float64
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Workers caps the number of parallel replications (default: number
	// of CPUs). Results are bit-identical for every Workers setting;
	// see engine.go for the contract.
	Workers int
	// Shard restricts a sweep to a deterministic subset of the grid so
	// several processes (or an interrupted one) can split a sweep and
	// later merge bit-identical results; the zero value runs the whole
	// grid. Like Workers, Shard never changes any computed row: each
	// point's seeds are derived from Seed alone.
	Shard Shard
}

// Shard names one slice of a sharded sweep: of the Count shards,
// this process computes the grid points whose index i satisfies
// i % Count == Index. The zero value means unsharded (one shard of
// one). Shard assignment is by position in the points slice, so every
// shard of a sweep must be launched with an identical grid.
type Shard struct {
	Index, Count int
}

// normalized maps the zero value to the whole grid and panics on an
// impossible shard, mirroring the engine's treatment of invalid Params.
func (s Shard) normalized() Shard {
	if s.Count == 0 && s.Index == 0 {
		return Shard{Index: 0, Count: 1}
	}
	if s.Count <= 0 || s.Index < 0 || s.Index >= s.Count {
		panic(fmt.Sprintf("sim: invalid shard %d/%d", s.Index, s.Count))
	}
	return s
}

// DefaultExperimentOptions returns laptop-scale defaults.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{P: 40, Q: 40, Confidence: 95, Seed: 1, Workers: runtime.NumCPU()}
}

func (o ExperimentOptions) normalized() ExperimentOptions {
	d := DefaultExperimentOptions()
	if o.P <= 0 {
		o.P = d.P
	}
	if o.Q <= 0 {
		o.Q = d.Q
	}
	if o.Confidence <= 0 || o.Confidence >= 100 {
		o.Confidence = d.Confidence
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	o.Shard = o.Shard.normalized()
	return o
}

// PolicyMeasurements holds the raw and aggregated measurements of one
// policy at one parameter point.
type PolicyMeasurements struct {
	Name string
	// ExecTime, Stalling, Utilization are the empirical sampling
	// distributions (P values, each a Q-run average).
	ExecTime, Stalling, Utilization []float64
	// Summaries of the P sample means.
	ExecSummary, StallSummary, UtilSummary stats.Summary
}

// Comparison is the PRIO/FIFO comparison at one (mu_BIT, mu_BS) point:
// the three ratio confidence intervals plotted in Figures 6-9.
type Comparison struct {
	Params      Params
	A, B        PolicyMeasurements
	ExecTime    stats.RatioCI // E[T_A] / E[T_B]
	Stalling    stats.RatioCI
	Utilization stats.RatioCI
}

// assembleMeasurements folds the per-replication raw metrics into the
// empirical sampling distributions and their summaries. It is shared by
// the grid engine and the reference path so both aggregate identically.
func assembleMeasurements(name string, execT, stall, util []float64, opts ExperimentOptions) PolicyMeasurements {
	pm := PolicyMeasurements{
		Name:        name,
		ExecTime:    stats.SamplingDistribution(execT, opts.P, opts.Q),
		Stalling:    stats.SamplingDistribution(stall, opts.P, opts.Q),
		Utilization: stats.SamplingDistribution(util, opts.P, opts.Q),
	}
	pm.ExecSummary = stats.Summarize(pm.ExecTime)
	pm.StallSummary = stats.Summarize(pm.Stalling)
	pm.UtilSummary = stats.Summarize(pm.Utilization)
	return pm
}

// Compare measures two policies on g at the given parameters and builds
// the three ratio confidence intervals (A over B). The policies are
// constructed per worker via the factories, since Policy implementations
// are stateful and not safe for concurrent use. Compare is CompareGrid
// on a single point.
func Compare(g *dag.Frozen, p Params, a, b func() Policy, opts ExperimentOptions) Comparison {
	return CompareGrid(g, []Params{p}, a, b, opts, nil)[0]
}

// ComparePRIOFIFO is the paper's headline comparison at one parameter
// point: the PRIO schedule (computed once) against FIFO.
func ComparePRIOFIFO(g *dag.Frozen, p Params, opts ExperimentOptions) Comparison {
	prio := NewPRIO(g) // compute the schedule once; clone per worker
	order := prio.StaticOrder()
	return Compare(g, p,
		func() Policy { return NewOblivious("PRIO", order) },
		func() Policy { return NewFIFO() },
		opts)
}

// GridPoint is one cell of the Figures 6-9 sweep.
type GridPoint struct {
	MuBIT, MuBS float64
	Comparison
}

// Sweep runs ComparePRIOFIFO over the cross product of the given
// mu_BIT and mu_BS values, in row-major order (matching the figures:
// seven mu_BIT sections, mu_BS rising within each). The whole grid is
// one flat parallel workload (see CompareGrid); progress still fires
// once per point, in row-major order, as points complete.
func Sweep(g *dag.Frozen, muBITs, muBSs []float64, opts ExperimentOptions, progress func(GridPoint)) []GridPoint {
	prio := NewPRIO(g)
	order := prio.StaticOrder()

	points := make([]Params, 0, len(muBITs)*len(muBSs))
	for _, bit := range muBITs {
		for _, bs := range muBSs {
			points = append(points, DefaultParams(bit, bs))
		}
	}
	out := make([]GridPoint, len(points))
	at := func(i int, c Comparison) GridPoint {
		return GridPoint{MuBIT: points[i].BatchInterarrival, MuBS: points[i].BatchSize, Comparison: c}
	}
	var cb func(int, Comparison)
	if progress != nil {
		cb = func(i int, c Comparison) { progress(at(i, c)) }
	}
	comps := CompareGrid(g, points,
		func() Policy { return NewOblivious("PRIO", order) },
		func() Policy { return NewFIFO() },
		opts, cb)
	for i, c := range comps {
		out[i] = at(i, c)
	}
	return out
}

// FormatRow renders a grid point as one table row (used by cmd/simgrid
// and the benchmarks).
func (gp GridPoint) FormatRow() string {
	f := func(ci stats.RatioCI) string {
		if !ci.Valid {
			return "      (n/a)      "
		}
		return fmt.Sprintf("%5.3f[%5.3f,%5.3f]", ci.Median, ci.Lo, ci.Hi)
	}
	return fmt.Sprintf("muBIT=%8.3g muBS=%7.0f  time=%s  stall=%s  util=%s",
		gp.MuBIT, gp.MuBS, f(gp.ExecTime), f(gp.Stalling), f(gp.Utilization))
}
