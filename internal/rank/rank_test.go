package rank

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/workloads"
)

// buildDag assembles a small dag from an arc list over n nodes.
func buildDag(t *testing.T, n int, arcs [][2]int) *dag.Frozen {
	t.Helper()
	b := dag.NewWithCapacity(n)
	for i := 0; i < n; i++ {
		b.AddNode("j" + strconv.Itoa(i))
	}
	for _, a := range arcs {
		b.MustAddArc(a[0], a[1])
	}
	return b.MustFreeze()
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// TestNamedFamilies: every family in Names() resolves, produces a
// permutation on a paper dag, and is deterministic across calls.
func TestNamedFamilies(t *testing.T) {
	g := workloads.AIRSN(10)
	for _, name := range Names() {
		r, err := New(name, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Name() == "" {
			t.Fatalf("%s: empty runtime name", name)
		}
		a, b := r.Order(g), r.Order(g)
		if !isPermutation(a, g.NumNodes()) {
			t.Fatalf("%s: not a permutation: %v", name, a)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: order not deterministic", name)
		}
	}
}

// TestPrioMatchesCore: the "prio" ranker is the core pipeline's order,
// bit for bit.
func TestPrioMatchesCore(t *testing.T) {
	g := workloads.Inspiral(8)
	r, err := New("prio", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Order(g), core.Prioritize(g).Order; !reflect.DeepEqual(got, want) {
		t.Fatalf("prio ranker diverges from core.Prioritize:\n got %v\nwant %v", got, want)
	}
	if r.Name() != "PRIO" {
		t.Fatalf("Name = %q, want PRIO", r.Name())
	}
}

// TestCritpathMatchesCountingSort pins the critpath chain to the
// reference the simulator originally counting-sorted: height
// descending, index ascending. This is the bit-identity bridge that
// lets the factory swap its bespoke sort for the ranker tier without
// moving a single golden.
func TestCritpathMatchesCountingSort(t *testing.T) {
	for _, g := range []*dag.Frozen{
		workloads.AIRSN(10),
		workloads.Montage(25, 3),
		buildDag(t, 6, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}, {4, 5}}),
	} {
		height, _ := g.Reverse().Levels()
		want := make([]int, g.NumNodes())
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return height[want[a]] > height[want[b]] })

		r, err := New("critpath", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Order(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("critpath chain diverges from height counting sort:\n got %v\nwant %v", got, want)
		}
	}
}

// TestHeftDivergesFromCritpath: the averaged upward rank must order a
// heavy multi-branch subtree above an equal-height single path — the
// behaviour that distinguishes HEFT-style ranks from pure path length
// under the model's unit costs.
func TestHeftDivergesFromCritpath(t *testing.T) {
	// Node 0 heads a single deep path (0-1-2-3 plus a shallow spur 4);
	// node 5 heads two parallel deep paths (5-6-7 and 5-8-9, each
	// extended one more: 7-10, 9-11). Heights: 0 and 5 both reach
	// depth 3... build so heights tie but mean ranks differ.
	g := buildDag(t, 12, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {0, 4}, // chain + shallow spur
		{5, 6}, {6, 7}, {7, 10}, {5, 8}, {8, 9}, {9, 11}, // two deep branches
	})
	// Both heads reach depth 3 (0-1-2-3 and 5-6-7-10), so critpath ties
	// them and falls back to the index; the fixture depends on that tie.
	heightScore := critpathScore(g)
	if heightScore[0] != 3 || heightScore[5] != 3 {
		t.Fatalf("fixture heights: h0=%d h5=%d, want 3 and 3", heightScore[0], heightScore[5])
	}
	cp, _ := New("critpath", core.Options{})
	heft, _ := New("heft", core.Options{})
	cpo, ho := cp.Order(g), heft.Order(g)
	pos := func(order []int, v int) int {
		for i, u := range order {
			if u == v {
				return i
			}
		}
		return -1
	}
	// critpath ties 0 and 5 at height 3 and breaks by index: 0 first.
	if pos(cpo, 0) > pos(cpo, 5) {
		t.Fatalf("critpath order: node 0 should precede node 5 on the index tiebreak: %v", cpo)
	}
	// heft ranks 5 higher: ru(0) = 1 + (ru(1)+ru(4))/2 = 1 + (3+1)/2 = 3,
	// ru(5) = 1 + (ru(6)+ru(8))/2 = 1 + (3+3)/2 = 4.
	if pos(ho, 5) > pos(ho, 0) {
		t.Fatalf("heft order: node 5 (two deep branches) should precede node 0 (one): %v", ho)
	}
}

// TestGrapheneFrontLoadsTroublesomeCore: every job on a longest path
// precedes every job off it in the graphene order.
func TestGrapheneFrontLoadsTroublesomeCore(t *testing.T) {
	for _, g := range []*dag.Frozen{
		workloads.AIRSN(10),
		workloads.Inspiral(8),
	} {
		trouble := troubleScore(g)
		r, err := New("graphene", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		order := r.Order(g)
		if r.Name() != "GRAPHENE" {
			t.Fatalf("Name = %q, want GRAPHENE", r.Name())
		}
		seenOffCore := false
		for _, v := range order {
			if trouble[v] == 0 {
				seenOffCore = true
			} else if seenOffCore {
				t.Fatalf("troublesome job %d scheduled after an off-core job: %v", v, order)
			}
		}
		if !seenOffCore {
			t.Fatalf("fixture dag has no off-core jobs; the test is vacuous")
		}
	}
}

// TestChains: explicit chains parse, tiebreak= is an accepted alias,
// the runtime name reflects the chain, and tie-breaking actually
// changes the order relative to the bare first component.
func TestChains(t *testing.T) {
	g := workloads.AIRSN(10)
	a, err := New("heft+outdeg", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("heft+tiebreak=outdeg", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "HEFT+OUTDEG" || b.Name() != "HEFT+OUTDEG" {
		t.Fatalf("chain names = %q, %q; want HEFT+OUTDEG", a.Name(), b.Name())
	}
	if !reflect.DeepEqual(a.Order(g), b.Order(g)) {
		t.Fatal("tiebreak= alias changed the order")
	}
	// A chain of one named component followed by others is still a
	// permutation and deterministic across every registered component.
	for _, spec := range []string{"critpath+outdeg", "trouble+heft", "outdeg+trouble+critpath+heft"} {
		r, err := New(spec, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !isPermutation(r.Order(g), g.NumNodes()) {
			t.Fatalf("%s: not a permutation", spec)
		}
	}
}

// TestChainTiebreakRefines: appending a tie-breaker never reorders
// jobs the first component already separates — it only refines ties.
func TestChainTiebreakRefines(t *testing.T) {
	g := workloads.Montage(25, 3)
	base, _ := New("critpath", core.Options{})
	chained, _ := New("critpath+outdeg", core.Options{})
	score := critpathScore(g)
	bo, co := base.Order(g), chained.Order(g)
	for i := 1; i < len(co); i++ {
		if score[co[i-1]] < score[co[i]] {
			t.Fatalf("chain broke the primary order at %d: %v before %v", i, co[i-1], co[i])
		}
	}
	// Same multiset of scores position by position as the base order.
	for i := range bo {
		if score[bo[i]] != score[co[i]] {
			t.Fatalf("chain moved a job across a score boundary at position %d", i)
		}
	}
}

// TestErrors: unknown families, unknown chain components, and empty
// chain elements are rejected with the component vocabulary named.
func TestErrors(t *testing.T) {
	for _, bad := range []string{"", "nope", "heft+nope", "tiebreak=outdeg+", "+", "prio+outdeg"} {
		if _, err := New(bad, core.Options{}); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestRegistries: Names and Components are stable, sorted where
// documented, and every component resolves standalone inside a chain.
func TestRegistries(t *testing.T) {
	if got, want := Names(), []string{"prio", "critpath", "heft", "graphene"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	// The registry is a map, so one call can meet the sorted order by
	// chance; every one of 50 must.
	comps := Components()
	for i := 0; i < 50; i++ {
		if got, want := Components(), []string{"critpath", "heft", "outdeg", "trouble"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Components() = %v, want %v", i, got, want)
		}
	}
	g := workloads.AIRSN(20)
	for _, c := range comps {
		r, err := New(c+"+"+comps[0], core.Options{})
		if err != nil {
			t.Fatalf("chain with %s: %v", c, err)
		}
		if !isPermutation(r.Order(g), g.NumNodes()) {
			t.Fatalf("chain with %s: not a permutation", c)
		}
	}
}
