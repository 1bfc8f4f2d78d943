package sim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rank"
)

// PolicyFactory resolves a policy name to a constructor for g. Factories
// are needed (rather than instances) because policies are stateful and
// the experiment driver runs one per worker. Every name below except
// fifo, random, and the maxjobs throttle resolves through the ranker
// tier (internal/rank) into one Oblivious state machine, so the whole
// family shares the kernel's set mode; fifo takes set mode too, on the
// kernel's own release-order queue. Recognized names —
// PolicyGrammar returns exactly this table's first column, and
// TestFactoryDocGrammar pins the two together:
//
//	prio            the prio tool's schedule (the paper's PRIO)
//	fifo            DAGMan's eligibility-order queue (the paper's FIFO)
//	random          uniformly random eligible job
//	critpath        highest-level-first (classic critical path)
//	heft            upward-rank priorities (Zhang et al., HEFT-style)
//	graphene        troublesome-subset-first packing (Grandl et al.)
//	prio-maxjobs=N  PRIO behind the Section 3.2 two-queue throttle
//	maxjobs=N       alias for prio-maxjobs=N
//	C1+C2+...+Ck    rank-component chain: C1 decides, later components
//	                break ties (tiebreak=NAME accepted); components are
//	                critpath, heft, outdeg, trouble (see internal/rank)
func PolicyFactory(name string, g *dag.Frozen) (func() Policy, error) {
	return PolicyFactoryOpts(name, g, core.Options{})
}

// PolicyFactoryOpts is PolicyFactory with explicit pipeline options for
// the PRIO-based policies, so a caller can share a schedule cache
// (priod's per-tenant core.Cache). Schedules are computed once per
// factory, up front; the returned constructors never run the pipeline
// again.
func PolicyFactoryOpts(name string, g *dag.Frozen, opts core.Options) (func() Policy, error) {
	switch {
	case name == "fifo":
		return func() Policy { return NewFIFO() }, nil
	case name == "random":
		return func() Policy { return NewRandom() }, nil
	case strings.HasPrefix(name, "prio-maxjobs="),
		strings.HasPrefix(name, "maxjobs="):
		_, val, _ := strings.Cut(name, "=")
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sim: bad maxjobs value %q", val)
		}
		order := core.PrioritizeOpts(g, opts).Order
		return func() Policy { return NewTwoLevel(order, n) }, nil
	default:
		r, err := rank.New(name, opts)
		if err != nil {
			return nil, fmt.Errorf("sim: %w (policy grammar: %s)", err, strings.Join(PolicyGrammar(), ", "))
		}
		order := r.Order(g)
		polName := r.Name()
		return func() Policy { return NewOblivious(polName, order) }, nil
	}
}

// PolicyNames lists the recognized fixed policy names (the ones that
// take no parameter), in the grammar table's order. The serving layer
// publishes this list on /v1/workloads.
func PolicyNames() []string {
	return []string{"prio", "fifo", "random", "critpath", "heft", "graphene"}
}

// PolicyGrammar lists every form the factory accepts: the fixed names
// plus the parameterized ones, exactly as the PolicyFactory doc table
// spells them. TestFactoryDocGrammar asserts table and function agree.
func PolicyGrammar() []string {
	return append(PolicyNames(), "prio-maxjobs=N", "maxjobs=N", "C1+C2+...+Ck")
}
