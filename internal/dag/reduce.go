package dag

// Shortcut removal (Step 1 of both the theoretical algorithm and the
// heuristic): an arc (u -> v) is a shortcut when v is reachable from u
// without using the arc. Shortcuts never change which jobs are eligible,
// but they obscure the bipartite building blocks, so the Divide phase
// removes them first. For dags, removing all shortcuts is exactly the
// transitive reduction (Aho-Garey-Ullman; Hsu), which is unique.

// ShortcutArcs returns every shortcut arc of g, sorted by (From, To).
//
// The algorithm processes each node u and asks which children of u are
// reachable from another child by a nonempty path. Children are scanned
// in topological order; a DFS from each child marks its descendants, and
// a child found already marked is a shortcut target. Every child list
// is sorted by topological position once, up front, so the DFS stops
// scanning a node's children at the first one past the position of u's
// last child: no later child can lie on a path to a child of u.
// Traversal is pure CSR slice walking: the only allocations are the
// sorted copy of the arcs, the visit stamps, the DFS stack and the
// result.
func (f *Frozen) ShortcutArcs() []Arc {
	pos := f.pos
	n := f.NumNodes()
	cs, sorted := f.childrenByPos()
	// visited[v] == stamp means v was marked during the current u's scan.
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	stack := make([]int32, 0, 64)
	var shortcuts []Arc

	for u := 0; u < n; u++ {
		// Children in ascending topological order: any child reachable
		// from another child must come later in topo order, so by the
		// time we visit it, the DFS of the earlier child has marked it.
		order := sorted[cs[u]:cs[u+1]]
		if len(order) < 2 {
			continue // a single arc cannot be a shortcut of itself
		}
		maxPos := pos[order[len(order)-1]]

		stamp := int32(u)
		for _, c := range order {
			if visited[c] == stamp {
				shortcuts = append(shortcuts, Arc{u, int(c)})
				continue // descendants of c are already being marked via the earlier child
			}
			// DFS from c, marking descendants up to maxPos.
			visited[c] = stamp
			stack = append(stack[:0], c)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range sorted[cs[x]:cs[x+1]] {
					if pos[w] > maxPos {
						break
					}
					if visited[w] != stamp {
						visited[w] = stamp
						stack = append(stack, w)
					}
				}
			}
		}
	}
	sortArcs(shortcuts)
	return shortcuts
}

// childrenByPos returns the forward adjacency as a fresh CSR (offsets
// from 0, whatever the receiver's arena layout) with every child list
// in ascending topological position. Walking the nodes in topological
// order and appending each to its parents' lists sorts all lists in
// one linear pass.
func (f *Frozen) childrenByPos() (start, sorted []int32) {
	n, m := f.NumNodes(), f.numArcs
	buf := make([]int32, 2*(n+1)+m)
	start, next, sorted := buf[:n+1], buf[n+1:2*(n+1)], buf[2*(n+1):]
	for v := 0; v <= n; v++ {
		start[v] = f.childStart[v] - f.childStart[0]
	}
	copy(next, start)
	for _, v := range f.topo {
		for _, p := range f.Parents(int(v)) {
			sorted[next[p]] = v
			next[p]++
		}
	}
	return start, sorted
}

func sortArcs(arcs []Arc) {
	// insertion sort is fine: shortcut lists are short in practice, and
	// the slice arrives almost sorted (outer loop is by From).
	for i := 1; i < len(arcs); i++ {
		a := arcs[i]
		j := i - 1
		for j >= 0 && (arcs[j].From > a.From || (arcs[j].From == a.From && arcs[j].To > a.To)) {
			arcs[j+1] = arcs[j]
			j--
		}
		arcs[j+1] = a
	}
}

// TransitiveReduction returns g with every shortcut arc removed,
// together with the list of removed arcs. Node indices and names are
// preserved. When the graph has no shortcuts the receiver itself is
// returned — Frozen graphs are immutable, so sharing is safe and the
// common already-reduced case costs no copy at all. Otherwise the
// reduced graph is assembled directly in CSR form, sharing the name
// table with the receiver.
func (f *Frozen) TransitiveReduction() (*Frozen, []Arc) {
	shortcuts := f.ShortcutArcs()
	if len(shortcuts) == 0 {
		return f, nil
	}
	n := f.NumNodes()
	m := f.numArcs - len(shortcuts)
	childStart := make([]int32, n+1)
	arena := make([]int32, 2*m)
	// shortcuts is sorted by From, so the dropped arcs of node u occupy
	// one contiguous range; those ranges are short (a handful of arcs),
	// so membership is a linear probe rather than a map. A node's
	// surviving children keep their relative adjacency order, matching a
	// rebuild that skips dropped arcs.
	si := 0
	var next int32
	for u := 0; u < n; u++ {
		childStart[u] = next
		sj := si
		for sj < len(shortcuts) && shortcuts[sj].From == u {
			sj++
		}
		for _, v := range f.Children(u) {
			dropped := false
			for k := si; k < sj; k++ {
				if shortcuts[k].To == int(v) {
					dropped = true
					break
				}
			}
			if dropped {
				continue
			}
			arena[next] = v
			next++
		}
		si = sj
	}
	childStart[n] = next
	r, err := buildFrozen(f.names, f.index, childStart, arena)
	if err != nil {
		panic(err) // unreachable: removing arcs cannot create a cycle
	}
	return r, shortcuts
}
