// The discrete-event core of the Section 4.1 stochastic grid model.
// See doc.go for the package overview.

package sim

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/rng"
)

// Params configures the stochastic system of Section 4.1.
type Params struct {
	// BatchInterarrival is mu_BIT, the mean time between request
	// batches (exponential).
	BatchInterarrival float64
	// BatchSize is mu_BS, the mean number of worker requests per batch
	// (exponential, discretized to max(1, round(x))).
	BatchSize float64
	// JobTimeMean and JobTimeStdDev parameterize the normal job running
	// time; the paper uses 1.0 and 0.1.
	JobTimeMean   float64
	JobTimeStdDev float64
	// JobMeans optionally overrides the mean running time per job
	// (indexed by node), modelling heterogeneous jobs — the relaxation
	// of the paper's equal-job-times assumption flagged as future work.
	// Empty means every job uses JobTimeMean; otherwise it holds one
	// entry per job, and a run panics on any other length.
	JobMeans []float64
	// RolloverWorkers flips the paper's "workers whose requests are not
	// filled are not rolled over" assumption: when true, unfilled
	// requests wait at the server and are handed the next job the
	// moment it becomes eligible. The paper argues such workers would
	// be intercepted by other computations; this switch quantifies what
	// that assumption costs.
	RolloverWorkers bool
	// FailureProb is the probability that an assigned job fails instead
	// of returning a result (a worker crashing or walking away with the
	// work, the grid unpredictability the paper's introduction
	// motivates; DAGMan's RETRY handles this in production). A failed
	// job becomes eligible again and must be reassigned. Zero, the
	// paper's model, means jobs always succeed.
	FailureProb float64
}

// DefaultParams returns the paper's job-time distribution with the given
// batch parameters.
func DefaultParams(muBIT, muBS float64) Params {
	return Params{
		BatchInterarrival: muBIT,
		BatchSize:         muBS,
		JobTimeMean:       1.0,
		JobTimeStdDev:     0.1,
	}
}

// Validate reports the first way p falls outside the model. Every
// float field and every JobMeans entry must be finite: NaN passes every
// comparison below, an infinite interarrival or job time never lets
// the simulated clock finish, and a NaN or infinite batch size
// silently discretizes to batches of 1. Run panics on params Validate
// rejects; the CLIs and priod call it first, to refuse such input
// before any replication starts.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"BatchInterarrival", p.BatchInterarrival},
		{"BatchSize", p.BatchSize},
		{"JobTimeMean", p.JobTimeMean},
		{"JobTimeStdDev", p.JobTimeStdDev},
		{"FailureProb", p.FailureProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s %v is not finite", f.name, f.v)
		}
	}
	for v, m := range p.JobMeans {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("sim: JobMeans[%d] %v is not finite", v, m)
		}
	}
	if p.BatchInterarrival <= 0 {
		return fmt.Errorf("sim: BatchInterarrival %v <= 0", p.BatchInterarrival)
	}
	if p.BatchSize <= 0 {
		return fmt.Errorf("sim: BatchSize %v <= 0", p.BatchSize)
	}
	if p.JobTimeMean <= 0 {
		return fmt.Errorf("sim: JobTimeMean %v <= 0", p.JobTimeMean)
	}
	if p.JobTimeStdDev < 0 {
		return fmt.Errorf("sim: JobTimeStdDev %v < 0", p.JobTimeStdDev)
	}
	if p.FailureProb < 0 || p.FailureProb >= 1 {
		return fmt.Errorf("sim: FailureProb %v outside [0,1)", p.FailureProb)
	}
	return nil
}

// Policy dispenses eligible jobs to workers. Implementations are
// stateful per run and must be reset with Start.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Start resets the policy for a fresh run on g. src is the run's
	// random source; randomized policies draw from it so that equal run
	// seeds give identical runs.
	Start(g *dag.Frozen, src *rng.Source)
	// Eligible notifies the policy that job v became eligible.
	Eligible(v int)
	// Next returns the next job to assign and true, or false when no
	// eligible job is unassigned. A returned job is considered assigned.
	Next() (int, bool)
}

// Metrics are the per-run measurements of Section 4.1.
type Metrics struct {
	// ExecutionTime is the completion time of the last job.
	ExecutionTime float64
	// StallProbability is the fraction of batches that stalled: among
	// batches arriving while at least one job was still unexecuted and
	// unassigned, those that found no assignable job.
	StallProbability float64
	// Utilization is jobs(G) / total requests arriving up to and
	// including the batch at which the last job was assigned.
	Utilization float64
	// Batches is the number of batches that arrived until the last job
	// was assigned.
	Batches int
	// Requests is the total number of worker requests in those batches.
	Requests int
}

// Run simulates one execution of g under the given policy and returns
// the metrics. The source provides all randomness, so equal seeds give
// identical runs. Run allocates fresh event state per call; callers
// replicating in a loop should use a Runner (see kernel.go), which is
// allocation-free in steady state.
func Run(g *dag.Frozen, p Params, pol Policy, src *rng.Source) Metrics {
	var st runState
	return st.run(g, p, pol, src, nil)
}

// batchSize draws the discretized exponential batch size.
func batchSize(src *rng.Source, mean float64) int {
	x := src.Exp(mean)
	s := int(math.Round(x))
	if s < 1 {
		s = 1
	}
	return s
}
