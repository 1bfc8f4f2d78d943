package sim

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rng"
)

// staticRank is the runtime tier's capability interface: a policy
// whose entire behaviour is determined by one fixed total order over
// the jobs. Such a policy is a set — Next pops the minimum rank of the
// eligible set, a pure function of its contents — so the kernel may
// drain it in set mode (kernel.go), without sorting completions and
// with eligibility kept in the kernel's own bitset. The capability, not
// the concrete type, is what the kernel tests for, so every ranker
// family internal/rank produces (and any wrapper embedding *Oblivious)
// inherits set mode. (FIFO, the one other policy set mode serves, is
// not a set; the kernel recognises it by its concrete type.)
//
// Embedding *Oblivious promotes both methods, and doing so is a
// semantic claim: the embedder must not change assignment behaviour
// (Eligible/Next), or set mode would execute the static order while
// exact mode executes the override. Policies that do change it
// (TwoLevel's bounded forwarding) hold an order field instead of
// embedding.
type staticRank interface {
	Policy
	// StaticOrder returns the fixed order (position -> job) that fully
	// determines the policy.
	StaticOrder() []int
	// setCore returns the Oblivious state machine executing that
	// order; the kernel keys its pooled rank tables on its identity.
	setCore() *Oblivious
}

// Oblivious is the paper's oblivious scheduling regimen: a fixed total
// order P over the jobs; when requests arrive, the eligible unassigned
// jobs smallest under P are handed out. With P = the prio tool's
// schedule this is the PRIO algorithm.
//
// An Oblivious instance is reused across replications by the engine:
// Start resets the eligible set in place (truncating the rank heap's
// backing array) and the rank table is derived from the immutable order
// once, on the first Start, so steady-state runs allocate nothing.
type Oblivious struct {
	name string
	rank []int
	// eligible holds the ranks of the currently eligible, unassigned
	// jobs; Next pops the minimum rank. Ranks are unique, so the pop
	// order is a pure function of the set's contents.
	eligible bitset.MinSet
	order    []int // rank -> job
}

// NewOblivious builds an oblivious policy from a total order over all
// jobs of the dag it will run on (order[i] executes with priority i).
func NewOblivious(name string, order []int) *Oblivious {
	return &Oblivious{name: name, order: append([]int(nil), order...)}
}

// NewPRIO builds the PRIO policy for g by running the full prio
// heuristic pipeline.
func NewPRIO(g *dag.Frozen) *Oblivious {
	return NewOblivious("PRIO", core.Prioritize(g).Order)
}

// Name implements Policy.
func (o *Oblivious) Name() string { return o.name }

// StaticOrder implements staticRank: the immutable order (position ->
// job) the policy was built from.
func (o *Oblivious) StaticOrder() []int { return o.order }

// setCore implements staticRank.
func (o *Oblivious) setCore() *Oblivious { return o }

// Start implements Policy.
func (o *Oblivious) Start(g *dag.Frozen, _ *rng.Source) {
	if len(o.order) != g.NumNodes() {
		panic(fmt.Sprintf("sim: order covers %d jobs, dag has %d", len(o.order), g.NumNodes()))
	}
	if len(o.rank) != len(o.order) {
		o.rank = make([]int, len(o.order))
		for r, v := range o.order {
			o.rank[v] = r
		}
	}
	o.eligible.Reset(len(o.order))
}

// Eligible implements Policy.
func (o *Oblivious) Eligible(v int) { o.eligible.Add(o.rank[v]) }

// Next implements Policy.
func (o *Oblivious) Next() (int, bool) {
	r, ok := o.eligible.PopMin()
	if !ok {
		return 0, false
	}
	return o.order[r], true
}

// FIFO is DAGMan's regimen: eligible jobs queue in the order they became
// eligible and are assigned from the front.
//
// Its pops are a function of the completion order alone, so where set
// mode applies (no failures, rollover, per-job means or observer) the
// kernel recognises *FIFO by its concrete type and replays the same
// queue itself, in its topo-relabeled id space, without calling these
// methods (kernel.go). They serve exact mode, and are its reference.
type FIFO struct {
	queue []int
	head  int
}

// NewFIFO returns a FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// Start implements Policy. The queue is pre-sized to the job count:
// without failures every job is enqueued once, so steady-state runs
// never grow it.
func (f *FIFO) Start(g *dag.Frozen, _ *rng.Source) {
	if n := g.NumNodes(); cap(f.queue) < n {
		f.queue = make([]int, 0, n)
	}
	f.queue = f.queue[:0]
	f.head = 0
}

// Eligible implements Policy.
func (f *FIFO) Eligible(v int) { f.queue = append(f.queue, v) }

// Next implements Policy.
func (f *FIFO) Next() (int, bool) {
	if f.head >= len(f.queue) {
		// Empty: drop the consumed prefix entirely so the next append
		// reuses the front of the backing array.
		f.queue = f.queue[:0]
		f.head = 0
		return 0, false
	}
	v := f.queue[f.head]
	f.head++
	// Compact once the consumed prefix dominates the slice. Without
	// this the queue only ever grows: on long runs with failures or
	// rolled-over workers it retains every job ever enqueued. Each
	// element is copied at most once per halving, so Next stays
	// amortized O(1), and the pop order is untouched.
	if f.head > len(f.queue)/2 {
		n := copy(f.queue, f.queue[f.head:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	return v, true
}
