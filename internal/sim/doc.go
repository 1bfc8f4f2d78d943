// Package sim implements the stochastic grid model of Section 4.1 and
// the experiment driver of Section 4.2 — the evaluation harness that
// compares the PRIO schedule against DAGMan's FIFO regimen.
//
// # The model
//
// Batches of worker requests arrive at a central server; the first
// batch at time 0, subsequent interarrival times exponentially
// distributed with mean BatchInterarrival (mu_BIT). Batch sizes are
// exponentially distributed with mean BatchSize (mu_BS), discretized to
// max(1, round(x)). Each assigned job runs for a Normal(1, 0.1) time on
// its worker. Requests that cannot be filled are NOT rolled over —
// those workers are presumed intercepted by other computations
// (Params.RolloverWorkers flips this assumption for the ablation). Two
// scheduling regimens are modelled: the oblivious regimen (a fixed
// total order prioritizes the eligible jobs; with the prio pipeline's
// order this is PRIO) and the FIFO regimen used by DAGMan.
//
// Three metrics are measured per run (Section 4.1): the execution time
// (time at which the last job completes), the probability of stalling
// (fraction of batches, among those arriving before the last job is
// assigned, that found at least one unexecuted-and-unassigned job but
// no eligible one), and the utilization (jobs divided by the total
// requests arriving until the batch at which the last job was
// assigned).
//
// # Role in the pipeline
//
// This package consumes schedules, it never produces them: NewPRIO and
// PolicyFactoryOpts run the core pipeline once, up front, and wrap the
// resulting order in an Oblivious policy. Compare / ComparePRIOFIFO /
// Sweep then replicate Run over seeded streams and reduce the metrics
// to the paper's sampling-distribution confidence intervals
// (P*Q replications, Section 4.2). PolicyFactoryOpts threads a
// core.Options through, so priod's tenants share their schedule cache
// with the simulations they run; the simulation itself is bit-identical
// either way, since the memoized pipeline is differentially tested to
// produce the uncached order. Simulated dags arrive as *dag.Frozen
// values; the replication kernel's hot loop walks the Frozen's CSR
// arc arena directly (dag.Frozen.ChildCSR), so the simulator carries
// no private copy of the graph.
//
// # Invariants
//
// Runs are deterministic given a seed: measure pre-derives one seed per
// replication from a single stream before any goroutine starts, so
// results do not depend on Workers or on goroutine interleaving. In
// exact mode a policy sees every job exactly once via Eligible before
// it can return it from Next; in set mode (the paper's PRIO and FIFO
// runs) the kernel makes the same pops itself (kernel.go). Run panics
// on Params that Params.Validate rejects, non-finite values included;
// the CLIs and priod call Validate before any replication starts.
//
// # Zero-allocation contract
//
// A Runner's steady-state replication performs zero heap allocations:
// once its pooled buffers and the policy's state have grown to the
// high-water mark of the seeds it replays, Runner.Run allocates nothing,
// whichever drain mode (kernel.go) and Policy implementation the run
// takes. TestRunKernelZeroAllocs is the census that pins it: every
// drain regime (default parameters, tied completion times, rollover
// with wide buckets, per-job means past the wheel's horizon, failures
// with and without rollover) crossed with every Policy implementation
// Run can dispatch to, each row at 0 allocations per replay of its
// seeds. TestDrainModeCensus pins which of them drain in set mode. The bench-sim gates
// hold the benchmarked RunKernel rows at 0 allocs/op and 0 B/op.
//
// # Concurrency contract
//
// Policy implementations (Oblivious, FIFO, and the factory-built
// random/critpath policies) are stateful per run and NOT safe for
// concurrent use — that is why the drivers take a factory func() Policy
// and construct one policy per worker. The experiment drivers
// (Compare, ComparePRIOFIFO, Sweep) are themselves safe to call
// concurrently on shared read-only graphs; internally each call runs
// its own ExperimentOptions.Workers-sized pool. Params,
// PolicyMeasurements, Comparison, and GridPoint are plain data.
package sim
