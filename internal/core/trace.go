// The FIFO reference schedule and the eligibility traces E(t) used
// throughout the evaluation (Fig. 4). See doc.go for the package
// overview.

package core

import (
	"fmt"

	"repro/internal/dag"
)

// EligibilityTrace executes the jobs of g in the given order and returns
// E, where E[t] is the number of eligible jobs after the first t
// executions (E[0] is the number of sources). A job is eligible when it
// is unexecuted and all of its parents have been executed. The order may
// cover a prefix of the dag (e.g. only non-sinks); it must never execute
// a job before its parents, or an error is returned.
func EligibilityTrace(g *dag.Frozen, order []int) ([]int, error) {
	n := g.NumNodes()
	return eligibilityTrace(g, order, make([]int, n), make([]bool, n), make([]int, 0, len(order)+1))
}

// eligibilityTrace is EligibilityTrace on caller storage: remaining and
// executed must have length g.NumNodes() (their contents are
// overwritten), and the trace is appended to trace[:0].
func eligibilityTrace(g *dag.Frozen, order, remaining []int, executed []bool, trace []int) ([]int, error) {
	n := g.NumNodes()
	eligible := 0
	for v := 0; v < n; v++ {
		remaining[v] = g.InDegree(v) // unexecuted parents per job
		executed[v] = false
		if remaining[v] == 0 {
			eligible++
		}
	}
	trace = append(trace[:0], eligible)
	for t, v := range order {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("core: order[%d] = %d out of range", t, v)
		}
		if executed[v] {
			return nil, fmt.Errorf("core: job %s executed twice (step %d)", g.Name(v), t)
		}
		if remaining[v] != 0 {
			return nil, fmt.Errorf("core: job %s executed at step %d with %d unexecuted parents",
				g.Name(v), t, remaining[v])
		}
		executed[v] = true
		eligible--
		for _, c := range g.Children(v) {
			remaining[c]--
			if remaining[c] == 0 {
				eligible++
			}
		}
		trace = append(trace, eligible)
	}
	return trace, nil
}

// ValidateExecutionOrder checks that order is a permutation of all jobs
// of g that respects every dependency.
func ValidateExecutionOrder(g *dag.Frozen, order []int) error {
	if len(order) != g.NumNodes() {
		return fmt.Errorf("core: order has %d jobs, dag has %d", len(order), g.NumNodes())
	}
	_, err := EligibilityTrace(g, order)
	return err
}

// FIFOSchedule returns the paper's FIFO reference order: jobs are
// executed in the order in which they become eligible. Sources enter the
// queue in node-index order (the order jobs appear in the DAGMan input
// file); a job enters the queue the moment its last parent executes,
// with simultaneous arrivals ordered by node index.
func FIFOSchedule(g *dag.Frozen) []int {
	n := g.NumNodes()
	remaining := make([]int, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		remaining[v] = g.InDegree(v)
		if remaining[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		order = append(order, u)
		// Children are scanned in adjacency order; within one
		// completion event that equals arc insertion order, and the
		// workload builders insert arcs in node-index order.
		for _, c := range g.Children(u) {
			remaining[c]--
			if remaining[c] == 0 {
				queue = append(queue, int(c))
			}
		}
	}
	if len(order) != n {
		panic("core: FIFOSchedule on cyclic graph")
	}
	return order
}

// TraceDifference returns, for two complete execution orders of g, the
// per-step difference E_a(t) - E_b(t) — the quantity plotted in Fig. 4
// with a = PRIO and b = FIFO.
func TraceDifference(g *dag.Frozen, a, b []int) ([]int, error) {
	ta, err := EligibilityTrace(g, a)
	if err != nil {
		return nil, fmt.Errorf("core: first order invalid: %w", err)
	}
	tb, err := EligibilityTrace(g, b)
	if err != nil {
		return nil, fmt.Errorf("core: second order invalid: %w", err)
	}
	if len(ta) != len(tb) {
		return nil, fmt.Errorf("core: traces cover %d and %d steps", len(ta), len(tb))
	}
	diff := make([]int, len(ta))
	for i := range ta {
		diff[i] = ta[i] - tb[i]
	}
	return diff, nil
}
