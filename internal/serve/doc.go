// Package serve is the scheduling-as-a-service layer: a long-lived
// HTTP/JSON front end over the prio pipeline, built for many concurrent
// tenants posting DAGMan files at a shared daemon (cmd/priod) rather
// than invoking the CLI per workflow.
//
// # Request lifecycle
//
// Every scheduling request (POST /v1/prioritize, POST /v1/simulate)
// passes three stages:
//
//  1. Admission. A fixed pool of in-flight slots (Config.MaxInFlight)
//     bounds concurrent scheduling work. When the pool is full the
//     request enters a bounded accept queue (Config.MaxQueue); a full
//     queue is an immediate 429, and a queued request that cannot get a
//     slot within Config.QueueTimeout is shed with 429 + Retry-After
//     (deadline-based shedding: under overload the daemon serves fewer
//     requests well instead of all requests badly). Size limits are
//     enforced before scheduling: a body over Config.MaxDagBytes or a
//     dag over Config.MaxJobs jobs is a 413.
//  2. Scheduling. The body is parsed with dagman.Parse, frozen into the
//     immutable CSR dag core, and prioritized by core.PrioritizeOpts
//     with the tenant's cache namespace (below). dag.Frozen is
//     immutable and core.Cache is concurrency-safe, so requests share
//     nothing mutable and need no locks of their own.
//  3. Response. format=dag is File.InstrumentIDs over the schedule's
//     priorities, which are indexed by node id like the file's jobs, so
//     no name-keyed map is built. The JSON encoding's scratch (the
//     response buffer, the quoting buffer) comes from a sync.Pool —
//     the sim.Runner pooling idiom applied to serving — so steady-state
//     request cost stays allocation-lean; make bench-serve-smoke gates
//     allocs/op against results/serve-bench-baseline.json.
//
// # Cache namespacing
//
// Each tenant (the X-Prio-Tenant header; "default" when absent) gets
// its own core.Cache, layered over the existing component-schedule and
// transitive-reduction caches: repeated component shapes within one
// tenant's workflows are scheduled once, while tenants never share
// cache entries, so one tenant's workload cannot skew another's memory
// or hit rate. Namespaces are evicted least-recently-used beyond
// Config.MaxTenants. Caching never changes output: the memoized
// pipeline is bit-identical to the uncached one (see internal/core),
// and the differential tests in this package pin served bytes to the
// cmd/prio path on the paper dags.
//
// # Observability
//
// GET /metrics reports an expvar-style JSON snapshot: per-route request
// counts by status class, latency count/mean/p50/p90/p99/max over a
// sliding window of recent requests, shed and reject counters,
// aggregate cache hit rates across tenants, and process memory
// including RSS. cmd/prioload drives the daemon with N concurrent
// clients and folds this surface into BENCH_serve.json.
//
// docs/API.md documents the wire protocol (a test enumerates the mux
// and fails on undocumented routes); docs/OPERATIONS.md is the runbook.
package serve
