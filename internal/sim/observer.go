package sim

import (
	"repro/internal/dag"
	"repro/internal/rng"
)

// Observer receives the simulation's events; cmd/dagsim uses it to print
// an execution trace. An observed run drains in the kernel's exact mode
// and returns the same metrics as an unobserved one. Without failures,
// callbacks fire in simulated-time order. With failures they can step
// back: once every job is assigned the drain runs past the pending
// batch time, and a failure there reopens assignment to that batch,
// which then fires at its own, earlier, time.
type Observer interface {
	// BatchArrived fires on each request batch: its size and how many
	// requests were filled.
	BatchArrived(at float64, size, served int)
	// Assigned fires when a job is handed to a worker.
	Assigned(at float64, job int)
	// Completed fires when a job's result returns.
	Completed(at float64, job int)
	// Failed fires when an assigned job's worker fails (FailureProb
	// runs only); the job re-enters the eligible pool.
	Failed(at float64, job int)
}

// RunObserved is Run with an event observer (which may be nil).
func RunObserved(g *dag.Frozen, p Params, pol Policy, src *rng.Source, obs Observer) Metrics {
	var st runState
	return st.run(g, p, pol, src, obs)
}
