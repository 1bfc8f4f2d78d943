package core

import (
	"fmt"
	"strings"

	"repro/internal/bipartite"
)

// Explain returns a human-readable account of why job v received its
// priority: which component it belongs to, how that component was
// scheduled (recognized family or outdegree heuristic), where the
// component landed in the Combine order, and the job's position inside
// it. Tool users ask this when a priority surprises them (e.g. the
// AIRSN fork job outranking 250 already-eligible fringe jobs).
func (s *Schedule) Explain(v int) string {
	g := s.Graph
	if v < 0 || v >= g.NumNodes() {
		return fmt.Sprintf("job %d does not exist", v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "job %q: priority %d (rank %d of %d)\n",
		g.Name(v), s.Priority[v], s.Rank[v]+1, g.NumNodes())

	ci := s.Decomposition.ScheduledIn[v]
	if ci == -1 {
		fmt.Fprintf(&b, "  a sink of the dag: executed in the final all-sinks phase\n")
		return b.String()
	}
	cs := &s.Components[ci]
	fmt.Fprintf(&b, "  scheduled by component C%d (%d jobs, %d to execute)\n",
		ci, len(cs.Comp.Nodes), len(cs.Order))
	if cs.Family != bipartite.Unknown {
		fmt.Fprintf(&b, "  component schedule: IC-optimal %s-dag source order\n", cs.Family)
	} else if cs.Comp.Bipartite {
		fmt.Fprintf(&b, "  component schedule: outdegree heuristic (bipartite, but no recognized family)\n")
	} else {
		fmt.Fprintf(&b, "  component schedule: outdegree heuristic (non-bipartite component)\n")
	}
	for pos, consumed := range s.ComponentOrder {
		if consumed == ci {
			fmt.Fprintf(&b, "  Combine phase consumed C%d %s of %d components\n",
				ci, ordinal(pos+1), len(s.ComponentOrder))
			break
		}
	}
	// position within the component schedule
	for i, si := range cs.Order {
		if cs.Comp.Orig[si] == v {
			deg := cs.Comp.Sub.OutDegree(si)
			fmt.Fprintf(&b, "  position %d of %d within the component (out-degree %d inside it)\n",
				i+1, len(cs.Order), deg)
			break
		}
	}
	return b.String()
}

func ordinal(n int) string {
	switch {
	case n%100 >= 11 && n%100 <= 13:
		return fmt.Sprintf("%dth", n)
	case n%10 == 1:
		return fmt.Sprintf("%dst", n)
	case n%10 == 2:
		return fmt.Sprintf("%dnd", n)
	case n%10 == 3:
		return fmt.Sprintf("%drd", n)
	default:
		return fmt.Sprintf("%dth", n)
	}
}
