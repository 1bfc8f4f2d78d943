package sim

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rank"
	"repro/internal/rng"
)

// This file holds the scheduling regimens beyond the paper's PRIO/FIFO
// pair, used by the extension experiments in EXPERIMENTS.md:
//
//   - Random assigns a uniformly random eligible job, a sanity baseline
//     between PRIO and FIFO.
//   - CriticalPath is the classic highest-level-first heuristic the
//     paper's introduction argues is hampered by the grid's temporal
//     unpredictability.
//   - TwoLevel models the DAGMan-queue/Condor-queue split of Section
//     3.2: eligible jobs are forwarded FIFO from the DAGMan queue into a
//     bounded Condor queue (the -maxjobs throttle), and only the Condor
//     queue honours priorities. It demonstrates the integration
//     shortcoming the paper describes: with a small bound, high-priority
//     eligible jobs sit unseen in the DAGMan queue.

// Random assigns a uniformly random eligible unassigned job.
type Random struct {
	src      *rng.Source
	eligible []int
}

// NewRandom returns a Random policy (randomness comes from the run's
// source, so runs stay reproducible).
func NewRandom() *Random { return &Random{} }

// Name implements Policy.
func (r *Random) Name() string { return "RANDOM" }

// Start implements Policy.
func (r *Random) Start(g *dag.Frozen, src *rng.Source) {
	r.src = src
	r.eligible = r.eligible[:0]
}

// Eligible implements Policy.
func (r *Random) Eligible(v int) { r.eligible = append(r.eligible, v) }

// Next implements Policy.
func (r *Random) Next() (int, bool) {
	if len(r.eligible) == 0 {
		return 0, false
	}
	i := r.src.Intn(len(r.eligible))
	v := r.eligible[i]
	last := len(r.eligible) - 1
	r.eligible[i] = r.eligible[last]
	r.eligible = r.eligible[:last]
	return v, true
}

// NewCriticalPath builds the highest-level-first oblivious policy: jobs
// are prioritized by the length of the longest path from them to a sink
// (descending, ties by index), the textbook critical-path heuristic.
// The order comes from the ranker tier, so this constructor and the
// factory's "critpath" are the same ranker by construction.
func NewCriticalPath(g *dag.Frozen) *Oblivious {
	r, err := rank.New("critpath", core.Options{})
	if err != nil {
		panic(err) // "critpath" is a registered family
	}
	return NewOblivious(r.Name(), r.Order(g))
}

// TwoLevel wraps a priority order with the Section 3.2 two-queue model:
// eligible jobs queue FIFO in the DAGMan queue; at most MaxJobs of them
// at a time are forwarded to the Condor queue, which assigns by
// priority. MaxJobs <= 0 means no throttle (every eligible job is
// forwarded immediately, recovering the pure PRIO behaviour the paper's
// integration relies on).
type TwoLevel struct {
	name    string
	order   []int
	maxJobs int

	rank   []int
	dagman []int // FIFO of eligible jobs not yet forwarded
	head   int
	condor bitset.MinSet // forwarded, keyed by rank
}

// NewTwoLevel builds the two-queue policy for the given priority order.
func NewTwoLevel(order []int, maxJobs int) *TwoLevel {
	return &TwoLevel{
		name:    fmt.Sprintf("PRIO/maxjobs=%d", maxJobs),
		order:   append([]int(nil), order...),
		maxJobs: maxJobs,
	}
}

// Name implements Policy.
func (t *TwoLevel) Name() string { return t.name }

// Start implements Policy. Like Oblivious.Start it resets in place:
// the rank table is derived once from the immutable order and both
// queues keep their backing arrays across replications.
func (t *TwoLevel) Start(g *dag.Frozen, _ *rng.Source) {
	if len(t.order) != g.NumNodes() {
		panic(fmt.Sprintf("sim: order covers %d jobs, dag has %d", len(t.order), g.NumNodes()))
	}
	if len(t.rank) != len(t.order) {
		t.rank = make([]int, len(t.order))
		for r, v := range t.order {
			t.rank[v] = r
		}
	}
	t.dagman = t.dagman[:0]
	t.head = 0
	t.condor.Reset(len(t.order))
}

// Eligible implements Policy.
func (t *TwoLevel) Eligible(v int) {
	t.dagman = append(t.dagman, v)
	t.forward()
}

// forward tops up the Condor queue from the DAGMan queue in FIFO order.
func (t *TwoLevel) forward() {
	for t.head < len(t.dagman) && (t.maxJobs <= 0 || t.condor.Len() < t.maxJobs) {
		t.condor.Add(t.rank[t.dagman[t.head]])
		t.head++
	}
	// Same compaction as FIFO: drop the forwarded prefix once it
	// dominates, so long runs do not retain every job ever enqueued.
	if t.head > len(t.dagman)/2 {
		n := copy(t.dagman, t.dagman[t.head:])
		t.dagman = t.dagman[:n]
		t.head = 0
	}
}

// Next implements Policy.
func (t *TwoLevel) Next() (int, bool) {
	r, ok := t.condor.PopMin()
	if !ok {
		return 0, false
	}
	t.forward()
	return t.order[r], true
}
