// Package repro reproduces "A Tool for Prioritizing DAGMan Jobs and Its
// Evaluation" (Malewicz, Foster, Rosenberg, Wilde; HPDC/J. Grid
// Computing 2006): the prio scheduling heuristic, its Condor DAGMan
// integration surface, the four scientific workload dags, and the
// stochastic grid simulation used to evaluate PRIO against FIFO.
//
// The library lives under internal/ (see DESIGN.md for the module map);
// the runnable entry points are cmd/prio, cmd/simgrid, cmd/eligdiff,
// and the programs under examples/. The benchmarks in bench_test.go
// regenerate the paper's figures and the Section 3.6 overhead table;
// the Section 3.5 ablations sit next to their test-only oracles in
// internal/decompose and internal/core. EXPERIMENTS.md records
// paper-versus-measured results.
package repro
