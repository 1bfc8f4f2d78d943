# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check check-race lint race cover bench bench-sim bench-sim-smoke bench-core bench-core-smoke bench-serve bench-serve-smoke fuzz fuzz-smoke sweeps examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# The full gate: formatting, vet, the project's own analyzers (via the
# lint target — one definition of the lint step), and the whole suite
# under the race detector.
check: lint
	@unformatted=$$(gofmt -l . | grep -v /testdata/ || true); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(MAKE) check-race

# Full suite under the race detector: the shared-Cache, sweep-engine,
# multi-file prio and daemon concurrency tests among the rest (compare
# `race` below, the quick sim + core subset). CI's "test (race)" step
# runs this target so local and CI gates cannot drift.
check-race:
	$(GO) test -race ./...

# The determinism/concurrency/compiler-fact analyzers (see
# internal/analysis). Run over ./... so the interprocedural analyzers
# see every implementation; spot-checking one package weakens purity
# and nestedlock to intra-package claims. The kernel's zero-alloc
# contract is not linted: TestRunKernelZeroAllocs measures it. Nor are
# the serving layer's goroutine joins, cancellation and response
# determinism: runtime tests check them (see internal/analysis/doc.go).
lint:
	$(GO) run ./cmd/priolint ./...

race:
	$(GO) test -race ./internal/sim ./internal/core

cover:
	$(GO) test -cover ./internal/...

# One benchmark per paper exhibit. The Section 3.5 ablations time the
# designs production replaced against their test-only oracles in
# internal/decompose and internal/core, and regenerate
# results/ablations.txt (each fails if its two variants disagree).
bench:
	$(GO) test . -bench . -benchmem -benchtime 3x
	mkdir -p results
	$(GO) test ./internal/decompose ./internal/core -run '^$$' -bench Ablation -benchmem -benchtime 3x > results/ablations.txt
	cat results/ablations.txt

# Replication-kernel throughput: run the simulation-engine benchmarks,
# archive the raw text in results/engine-bench.txt, and emit
# machine-readable BENCH_sim.json (reps/s, allocs/op per benchmark).
# The zero-alloc and zero-byte assertions make this a gate, not just a
# report: BenchmarkRunAIRSN is the pre-engine per-run cost (fresh state
# every replication) kept for comparison, BenchmarkRunKernel the pooled
# kernel that must stay allocation-free — B/op included, so amortized
# slice regrowth (which rounds to 0 allocs/op) cannot creep back in.
bench-sim:
	mkdir -p results
	$(GO) test ./internal/sim -run xxx -bench 'BenchmarkRunKernel|BenchmarkEngineGrid|BenchmarkRunAIRSN' -benchmem > results/engine-bench.txt
	cat results/engine-bench.txt
	$(GO) run ./cmd/benchjson -assert-zero-allocs 'RunKernel/' -assert-zero-bytes 'RunKernel/' -o BENCH_sim.json results/engine-bench.txt

# Short form for CI: a few thousand kernel replications, enough for the
# steady-state zero-alloc/zero-byte gates plus a coarse ns/op trend
# check against the checked-in BENCH_sim.json — a kernel change whose
# median over five runs loses more than 15% throughput on the measured
# subset fails here instead of landing silently, while one slow run on
# a noisy host does not (refresh the baseline with `make bench-sim`
# when a slowdown is intentional). The airsn pattern covers
# one row per policy family (prio, fifo, and the ranker-tier heft), so
# the zero-byte assertion gates the new families' fast path too.
bench-sim-smoke:
	$(GO) test ./internal/sim -run xxx -bench 'BenchmarkRunKernel/airsn' -benchtime 2000x -count 5 -benchmem | $(GO) run ./cmd/benchjson -assert-zero-allocs 'RunKernel/' -assert-zero-bytes 'RunKernel/' -assert-ns-trend BENCH_sim.json -ns-tolerance 1.15

# Frozen-core allocation gate: the end-to-end parse -> Graph ->
# Prioritize path on the AIRSN/Inspiral/SDSS dags, archived as raw text
# in results/core-bench.txt and machine-readable BENCH_core.json. The
# baseline assertion makes this a gate: allocs/op per workload must stay
# within 10% of the checked-in results/core-bench-baseline.json (the
# post-refactor profile — at least 2x fewer allocations per schedule
# than the pre-refactor pipeline recorded in
# results/core-bench-prerefactor.txt).
bench-core:
	mkdir -p results
	$(GO) test . -run xxx -bench 'BenchmarkParseSchedule' -benchtime 5x -benchmem > results/core-bench.txt
	cat results/core-bench.txt
	$(GO) run ./cmd/benchjson -assert-allocs-baseline results/core-bench-baseline.json -o BENCH_core.json results/core-bench.txt

# Short form for CI: one pass per workload still yields exact allocs/op
# (the schedule pipeline is deterministic), so the regression gate is as
# strong as the full run and finishes in seconds. The ns/op trend gate
# against the checked-in BENCH_core.json mirrors bench-sim-smoke; the
# looser tolerance absorbs single-iteration timing jitter while still
# catching an accidentally quadratic parse -> schedule path (refresh
# the baseline with `make bench-core` when a slowdown is intentional).
bench-core-smoke:
	$(GO) test . -run xxx -bench 'BenchmarkParseSchedule' -benchtime 1x -benchmem | $(GO) run ./cmd/benchjson -assert-allocs-baseline results/core-bench-baseline.json -assert-ns-trend BENCH_core.json -ns-tolerance 1.6

# Serving-layer load benchmark: cmd/prioload drives 32 concurrent
# clients posting the AIRSN/Inspiral/Montage dags over real HTTP at an
# in-process priod server and reports mean/p50/p99 latency, throughput,
# and server RSS per dag. The sequential ServePrioritize micro-bench
# rows are merged into the same archive so BENCH_serve.json carries a
# per-request ns/op baseline the smoke's trend gate can compare against
# (the concurrent ServeLoad rows are too machine-dependent to gate on).
# Raw text lands in results/serve-bench.txt, machine-readable
# BENCH_serve.json next to the other BENCH_*.json artifacts.
# Methodology in EXPERIMENTS.md "The serving layer".
bench-serve:
	mkdir -p results
	$(GO) run ./cmd/prioload -dags airsn,inspiral,montage -clients 32 -requests 32 -warmup 32 > results/serve-bench.txt
	$(GO) test ./internal/serve -run xxx -bench 'BenchmarkServePrioritize' -benchtime 100x -benchmem >> results/serve-bench.txt
	cat results/serve-bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_serve.json results/serve-bench.txt

# Short form for CI: the serving layer's allocation gate. Sequential
# in-process requests through the real mux are deterministic enough for
# a per-request allocs/op assertion against the checked-in baseline;
# the generous tolerance absorbs pool-refill and map-growth jitter
# while still catching an accidentally quadratic or per-request-copying
# serving path. The ns/op trend gate compares the same ServePrioritize
# rows against the ones bench-serve merged into BENCH_serve.json, so a
# latency regression on the response path fails here too (refresh the
# baseline with `make bench-serve` when a slowdown is intentional).
bench-serve-smoke:
	$(GO) test ./internal/serve -run xxx -bench 'BenchmarkServePrioritize' -benchtime 30x -benchmem | $(GO) run ./cmd/benchjson -assert-allocs-baseline results/serve-bench-baseline.json -allocs-tolerance 1.5 -assert-ns-trend BENCH_serve.json -ns-tolerance 1.6

fuzz:
	$(GO) test ./internal/dagman -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/dagman -fuzz FuzzParseSubmit -fuzztime 30s
	$(GO) test ./internal/dagman -fuzz FuzzParseDAGMan -fuzztime 30s
	$(GO) test ./internal/dagman -fuzz 'FuzzParseOracle$$' -fuzztime 30s
	$(GO) test ./internal/dagman -fuzz 'FuzzInstrument$$' -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzSchedule -fuzztime 30s
	$(GO) test ./internal/sim -fuzz FuzzKernelReplication -fuzztime 30s
	$(GO) test ./internal/serve -fuzz FuzzPrioritizeRequest -fuzztime 30s
	$(GO) test ./internal/dag -fuzz FuzzShortcutArcs -fuzztime 30s
	$(GO) test ./internal/decompose -fuzz FuzzGeneralRound -fuzztime 30s

# Short fuzz pass for CI: 10s per target on the invariants that matter
# most (parser round-trip, the parser against its reference oracle,
# instrumentation rewrite safety, schedule validity/determinism,
# pooled-kernel equivalence, response determinism and well-formedness
# through the real mux, and Divide's shortcut search and general round
# against their test-only oracles).
fuzz-smoke:
	$(GO) test ./internal/dagman -run xxx -fuzz FuzzParseDAGMan -fuzztime 10s
	$(GO) test ./internal/dagman -run xxx -fuzz 'FuzzParseOracle$$' -fuzztime 10s
	$(GO) test ./internal/dagman -run xxx -fuzz 'FuzzInstrument$$' -fuzztime 10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzSchedule -fuzztime 10s
	$(GO) test ./internal/sim -run xxx -fuzz FuzzKernelReplication -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzPrioritizeRequest -fuzztime 10s
	$(GO) test ./internal/dag -run xxx -fuzz FuzzShortcutArcs -fuzztime 10s
	$(GO) test ./internal/decompose -run xxx -fuzz FuzzGeneralRound -fuzztime 10s

# Regenerate the Figures 6-9 sweeps, the Fig. 4 eligibility summaries
# and the Section 3.6 overhead table (BenchmarkOverhead) into results/
# (about 10 minutes).
sweeps:
	mkdir -p results
	$(GO) run ./cmd/simgrid -dag airsn    -scale 1 -p 25 -q 25 > results/fig6_airsn.txt
	$(GO) run ./cmd/simgrid -dag inspiral -scale 1 -p 15 -q 15 > results/fig7_inspiral.txt
	$(GO) run ./cmd/simgrid -dag sdss     -scale 1 -p 8  -q 8  > results/fig8_sdss.txt
	$(GO) run ./cmd/simgrid -dag montage  -scale 1 -p 12 -q 12 > results/fig9_montage.txt
	$(GO) run ./cmd/eligdiff -dag airsn -summary    > results/fig4_eligibility.txt
	$(GO) run ./cmd/eligdiff -dag inspiral -summary >> results/fig4_eligibility.txt
	$(GO) run ./cmd/eligdiff -dag montage -summary  >> results/fig4_eligibility.txt
	$(GO) run ./cmd/eligdiff -dag sdss -summary     >> results/fig4_eligibility.txt
	$(GO) test . -run '^$$' -bench Overhead -benchmem > results/overhead.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/theory
	$(GO) run ./examples/dagmanfile
	$(GO) run ./examples/sweep
	$(GO) run ./examples/airsn

clean:
	$(GO) clean ./...
