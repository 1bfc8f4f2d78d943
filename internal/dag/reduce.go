package dag

// Shortcut removal (Step 1 of both the theoretical algorithm and the
// heuristic): an arc (u -> v) is a shortcut when v is reachable from u
// without using the arc. Shortcuts never change which jobs are eligible,
// but they obscure the bipartite building blocks, so the Divide phase
// removes them first. For dags, removing all shortcuts is exactly the
// transitive reduction (Aho-Garey-Ullman; Hsu), which is unique.

// ShortcutArcs returns every shortcut arc of g, sorted by (From, To).
//
// An arc u -> w is a shortcut exactly when some other parent of w is
// reachable from u. So a child whose latest parent (in topological
// position) is u itself can never be a shortcut target, and u's search
// only has to reach bound, the position of the latest other parent of
// any of its children, not u's last child. Every child list is sorted
// by topological position once, up front, in the same pass that records
// each node's latest parent position.
//
// For each u, a DFS from its children in topological order marks every
// descendant up to bound; a child found already marked is a shortcut
// target (any path between two children of u runs forward in
// topological order). A child past bound is a shortcut when one of its
// parents was marked. That test costs either the child's in-degree
// (scan its parents) or the out-degrees of the marked nodes (scan their
// children up to u's last child); the cheaper side is taken, so a
// fan-in hub (Montage's mBackground jobs under one mBgModel) costs its
// own two parents, and an all-to-all stage with nothing marked costs
// nothing. The only allocations are the sorted copy of the arcs, the
// visit stamps, the DFS stack, the list of marked nodes and the result.
func (f *Frozen) ShortcutArcs() []Arc {
	pos := f.pos
	n := f.NumNodes()
	cs, sorted, last := f.childrenByPos()
	// visited[v] == stamp means v was marked during the current u's scan;
	// visited[v] == -2-stamp that v is a candidate child of u past bound.
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	stack := make([]int32, 0, 64)
	var marked []int32
	var shortcuts []Arc

	for u := 0; u < n; u++ {
		order := sorted[cs[u]:cs[u+1]]
		if len(order) < 2 {
			continue // a single arc cannot be a shortcut of itself
		}
		pu := pos[u]
		bound := int32(-1)
		for _, w := range order {
			if l := last[w]; l != pu && l > bound {
				bound = l
			}
		}
		if bound < 0 {
			continue // u is the latest parent of each of its children
		}

		stamp := int32(u)
		marked = marked[:0]
		fanOut := 0 // out-degrees of the marked nodes
		i := 0
		for ; i < len(order) && pos[order[i]] <= bound; i++ {
			c := order[i]
			if visited[c] == stamp {
				shortcuts = append(shortcuts, Arc{u, int(c)})
				continue // descendants of c are already being marked via the earlier child
			}
			visited[c] = stamp
			stack = append(stack[:0], c)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				marked = append(marked, x)
				fanOut += int(cs[x+1] - cs[x])
				for _, y := range sorted[cs[x]:cs[x+1]] {
					if pos[y] > bound {
						break
					}
					if visited[y] != stamp {
						visited[y] = stamp
						stack = append(stack, y)
					}
				}
			}
		}

		// Children past bound: only those with a later parent than u
		// are candidates, and all those parents lie within bound.
		rest := order[i:]
		if len(marked) == 0 || len(rest) == 0 {
			continue
		}
		fanIn := 0
		for _, w := range rest {
			if last[w] != pu {
				fanIn += f.InDegree(int(w))
			}
		}
		if fanIn <= fanOut {
			for _, w := range rest {
				if last[w] == pu {
					continue
				}
				for _, p := range f.Parents(int(w)) {
					if visited[p] == stamp {
						shortcuts = append(shortcuts, Arc{u, int(w)})
						break
					}
				}
			}
			continue
		}
		candidate := -2 - stamp
		for _, w := range rest {
			if last[w] != pu {
				visited[w] = candidate
			}
		}
		maxPos := pos[order[len(order)-1]]
		for _, x := range marked {
			for _, y := range sorted[cs[x]:cs[x+1]] {
				if py := pos[y]; py > maxPos {
					break
				} else if py > bound && visited[y] == candidate {
					visited[y] = stamp
				}
			}
		}
		for _, w := range rest {
			if visited[w] == stamp {
				shortcuts = append(shortcuts, Arc{u, int(w)})
			}
		}
	}
	sortArcs(shortcuts)
	return shortcuts
}

// childrenByPos returns the forward adjacency as a fresh CSR (offsets
// from 0, whatever the receiver's arena layout) with every child list
// in ascending topological position, and last[v], the largest
// topological position among v's parents (-1 for a source). Walking
// the nodes in topological order and appending each to its parents'
// lists sorts all lists in one linear pass.
func (f *Frozen) childrenByPos() (start, sorted, last []int32) {
	n, m := f.NumNodes(), f.numArcs
	buf := make([]int32, 2*(n+1)+m+n)
	next := buf[n+1 : 2*(n+1)]
	start, sorted, last = buf[:n+1], buf[2*(n+1):2*(n+1)+m], buf[2*(n+1)+m:]
	for v := 0; v <= n; v++ {
		start[v] = f.childStart[v] - f.childStart[0]
	}
	copy(next, start)
	for _, v := range f.topo {
		l := int32(-1)
		for _, p := range f.Parents(int(v)) {
			sorted[next[p]] = v
			next[p]++
			l = max(l, f.pos[p])
		}
		last[v] = l
	}
	return start, sorted, last
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
