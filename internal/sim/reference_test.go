package sim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
)

// This file keeps the kernel's original sort-merge event queue and its
// replication loop as the exact-order oracle. runOrdered pops every
// completion in global (at, job) order from a structure that shares
// nothing with the calendar — bursts of assignments are bulk-sorted and
// merged, mid-drain pushes go to an 8-ary overflow heap — so the
// differential tests pin both of the kernel's drain modes against an
// independent implementation of the same model.

// eventHeap is an 8-ary min-heap of completion events in (at, job)
// order. It only backs eventQueue's overflow path (mid-drain rollover
// assignments and small bursts). Sifts move a hole instead of swapping.
type eventHeap []completion

func (h *eventHeap) push(ev completion) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := int(uint(i-1) / 8)
		if !ev.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the minimum event. It must not be called on
// an empty heap.
func (h *eventHeap) pop() completion {
	s := *h
	min := s[0]
	last := len(s) - 1
	ev := s[last]
	*h = s[:last]
	s = s[:last]
	if last == 0 {
		return min
	}
	i := 0
	for {
		first := 8*i + 1
		if first >= last {
			break
		}
		smallest := first
		end := first + 8
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(s[smallest]) {
				smallest = c
			}
		}
		if !s[smallest].before(ev) {
			break
		}
		s[i] = s[smallest]
		i = smallest
	}
	s[i] = ev
	return min
}

// eventQueue is the sort-merge pending-completion queue: each burst of
// assignments is appended unsorted, sorted once, and merged into the
// live sorted region; pops advance an index. Pushes during a drain go
// to the overflow heap, and pop takes the smaller of the two fronts.
type eventQueue struct {
	buf     []completion // buf[head:sorted) ascending; buf[sorted:] unsorted appends
	head    int
	sorted  int
	over    eventHeap    // small-burst and mid-drain pushes
	scratch []completion // merge target, swapped with buf
}

func (q *eventQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
	q.sorted = 0
	q.over = q.over[:0]
}

func (q *eventQueue) len() int { return len(q.buf) - q.head + len(q.over) }

// appendBurst adds an event without restoring order; the caller must
// normalize before the next minAt/pop.
func (q *eventQueue) appendBurst(at float64, job int32) {
	q.buf = append(q.buf, completion{at: at, job: job})
}

// pushSorted adds an event while the queue is live.
func (q *eventQueue) pushSorted(at float64, job int32) {
	q.over.push(completion{at: at, job: job})
}

// sortCompletions orders s by (at, job): a median-of-three quicksort
// (Sedgewick's sentinel formulation) over an insertion-sort base case.
// Keys are unique (a job is pending at most once), which the sentinel
// scans rely on.
func sortCompletions(s []completion) {
	for len(s) > 24 {
		m := len(s) / 2
		l := len(s) - 1
		if s[m].before(s[0]) {
			s[m], s[0] = s[0], s[m]
		}
		if s[l].before(s[0]) {
			s[l], s[0] = s[0], s[l]
		}
		if s[m].before(s[l]) {
			s[m], s[l] = s[l], s[m]
		}
		s[0], s[l] = s[l], s[0] // pivot (median) to s[0], max of three to s[l]
		v := s[0]
		i, j := 0, l+1
		for {
			for i++; s[i].before(v) && i < l; i++ {
			}
			for j--; v.before(s[j]); j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		s[0], s[j] = s[j], s[0]
		if j < len(s)-j-1 {
			sortCompletions(s[:j])
			s = s[j+1:]
		} else {
			sortCompletions(s[j+1:])
			s = s[:j]
		}
	}
	for i := 1; i < len(s); i++ {
		ev := s[i]
		j := i - 1
		for ; j >= 0 && ev.before(s[j]); j-- {
			s[j+1] = s[j]
		}
		s[j+1] = ev
	}
}

// normalize restores the queue invariant after appendBurst calls: a
// large burst is sorted and merged with the live region, a small one
// is fed to the overflow heap.
func (q *eventQueue) normalize() {
	tail := len(q.buf) - q.sorted
	if tail == 0 {
		return
	}
	live := q.sorted - q.head
	if tail*32 < live {
		for _, ev := range q.buf[q.sorted:] {
			q.over.push(ev)
		}
		q.buf = q.buf[:q.sorted]
		return
	}
	sortCompletions(q.buf[q.sorted:])
	if live == 0 {
		n := copy(q.buf, q.buf[q.sorted:])
		q.buf = q.buf[:n]
		q.head = 0
		q.sorted = n
		return
	}
	a, b := q.buf[q.head:q.sorted], q.buf[q.sorted:]
	out := q.scratch[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if !b[j].before(a[i]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	q.scratch = q.buf[:0]
	q.buf = out
	q.head = 0
	q.sorted = len(out)
}

// minAt returns the earliest pending completion time of a normalized,
// non-empty queue.
func (q *eventQueue) minAt() float64 {
	if q.head < len(q.buf) {
		if len(q.over) > 0 && q.over[0].before(q.buf[q.head]) {
			return q.over[0].at
		}
		return q.buf[q.head].at
	}
	return q.over[0].at
}

// pop removes and returns the earliest event of a normalized, non-empty
// queue.
func (q *eventQueue) pop() (float64, int32) {
	if q.head < len(q.buf) {
		if len(q.over) > 0 && q.over[0].before(q.buf[q.head]) {
			ev := q.over.pop()
			return ev.at, ev.job
		}
		ev := q.buf[q.head]
		q.head++
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
			q.sorted = 0
		}
		return ev.at, ev.job
	}
	ev := q.over.pop()
	return ev.at, ev.job
}

// runOrdered is the reference replication loop: the model's
// discrete-event semantics over eventQueue, with every policy driven
// through its Policy methods in original id space. It must agree bit
// for bit with the kernel in both drain modes.
func runOrdered(g *dag.Frozen, p Params, pol Policy, src *rng.Source, obs Observer) Metrics {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := g.NumNodes()
	if n == 0 {
		return Metrics{}
	}
	var pending eventQueue
	remaining := make([]int32, n)
	for v := range remaining {
		remaining[v] = int32(g.InDegree(v))
	}
	childStart, children := g.ChildCSR()
	pol.Start(g, src)
	for _, v := range g.Sources() {
		pol.Eligible(int(v))
	}

	now := 0.0
	nextBatch := 0.0
	unassigned := n
	executed := 0
	lastCompletion := 0.0
	batches, stalls, requests := 0, 0, 0
	waiting := 0

	assign := func(v int, mid bool) {
		if obs != nil {
			obs.Assigned(now, v)
		}
		unassigned--
		mean := p.JobTimeMean
		if len(p.JobMeans) > 0 {
			mean = p.JobMeans[v]
		}
		d := src.Normal(mean, p.JobTimeStdDev)
		if d < 1e-3 {
			d = 1e-3
		}
		if mid {
			pending.pushSorted(now+d, int32(v))
		} else {
			pending.appendBurst(now+d, int32(v))
		}
	}

	for executed < n {
		pending.normalize()
		for pending.len() > 0 && (unassigned == 0 || pending.minAt() <= nextBatch) {
			at, job := pending.pop()
			now = at
			if p.FailureProb > 0 && src.Float64() < p.FailureProb {
				unassigned++
				if obs != nil {
					obs.Failed(now, int(job))
				}
				pol.Eligible(int(job))
				continue
			}
			executed++
			lastCompletion = at
			if obs != nil {
				obs.Completed(now, int(job))
			}
			for ci, end := childStart[job], childStart[job+1]; ci < end; ci++ {
				c := children[ci]
				remaining[c]--
				if remaining[c] == 0 {
					pol.Eligible(int(c))
				}
			}
			for waiting > 0 && unassigned > 0 {
				v, ok := pol.Next()
				if !ok {
					break
				}
				waiting--
				assign(v, true)
			}
		}
		if executed == n {
			break
		}
		if unassigned == 0 {
			continue
		}

		now = nextBatch
		size := batchSize(src, p.BatchSize)
		batches++
		requests += size
		served := 0
		for i := 0; i < size; i++ {
			v, ok := pol.Next()
			if !ok {
				break
			}
			served++
			assign(v, false)
		}
		if served == 0 {
			stalls++
		}
		if obs != nil {
			obs.BatchArrived(now, size, served)
		}
		if p.RolloverWorkers {
			waiting += size - served
		}
		nextBatch = now + src.Exp(p.BatchInterarrival)
	}

	m := Metrics{ExecutionTime: lastCompletion, Batches: batches, Requests: requests}
	if batches > 0 {
		m.StallProbability = float64(stalls) / float64(batches)
	}
	if requests > 0 {
		m.Utilization = float64(n) / float64(requests)
	}
	return m
}

// TestEventHeapOrdering drives the overflow min-heap with a random
// push/pop interleaving and checks it always yields the minimum.
func TestEventHeapOrdering(t *testing.T) {
	r := rng.New(3)
	var h eventHeap
	var live []float64
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || r.Float64() < 0.6 {
			at := r.Float64()
			h.push(completion{at: at, job: int32(step)})
			live = append(live, at)
		} else {
			ev := h.pop()
			sort.Float64s(live)
			if ev.at != live[0] {
				t.Fatalf("step %d: popped %v, min is %v", step, ev.at, live[0])
			}
			live = live[1:]
		}
	}
	sort.Float64s(live)
	for _, want := range live {
		if got := h.pop().at; got != want {
			t.Fatalf("drain: popped %v, want %v", got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not empty after drain: %d left", len(h))
	}
}

// TestSortCompletions checks the reference quicksort against the
// standard library on random data and on the patterns quicksorts get
// wrong: pre-sorted, reversed, constant, and few-distinct times (ties
// broken by job), plus every length through the insertion-sort cutover.
func TestSortCompletions(t *testing.T) {
	r := rng.New(11)
	check := func(name string, s []completion) {
		t.Helper()
		want := append([]completion(nil), s...)
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		sortCompletions(s)
		for i, ev := range s {
			if ev != want[i] {
				t.Fatalf("%s: index %d = %v, want %v", name, i, ev, want[i])
			}
		}
	}
	for n := 0; n <= 60; n++ {
		s := make([]completion, n)
		for i := range s {
			s[i] = completion{at: r.Float64(), job: int32(i)}
		}
		check(fmt.Sprintf("random-%d", n), s)
	}
	big := func(gen func(i int) float64) []completion {
		s := make([]completion, 5000)
		for i := range s {
			s[i] = completion{at: gen(i), job: int32(i)}
		}
		return s
	}
	check("random-big", big(func(int) float64 { return r.Float64() }))
	check("sorted", big(func(i int) float64 { return float64(i) }))
	check("reversed", big(func(i int) float64 { return float64(-i) }))
	check("constant", big(func(int) float64 { return 1.5 }))
	check("few-distinct", big(func(i int) float64 { return float64(i % 3) }))
	check("sawtooth", big(func(i int) float64 { return float64(i % 50) }))
}

// TestEventQueueOrdering drives the sort-merge event queue through the
// kernel's access pattern — bursts of appends, a normalize, a run of
// pops with occasional mid-drain pushes (the rollover path) — against
// a sorted-slice oracle.
func TestEventQueueOrdering(t *testing.T) {
	r := rng.New(9)
	var q eventQueue
	var live []float64
	popOne := func(step int) {
		at, _ := q.pop()
		sort.Float64s(live)
		if at != live[0] {
			t.Fatalf("step %d: popped %v, min is %v", step, at, live[0])
		}
		live = live[1:]
	}
	for step := 0; step < 2000; step++ {
		burst := int(r.Float64() * 20)
		for i := 0; i < burst; i++ {
			at := r.Float64() * 100
			q.appendBurst(at, int32(i))
			live = append(live, at)
		}
		q.normalize()
		if q.len() != len(live) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(live))
		}
		drain := int(r.Float64() * float64(len(live)+1))
		for i := 0; i < drain && len(live) > 0; i++ {
			if r.Float64() < 0.2 {
				at := r.Float64() * 100
				q.pushSorted(at, int32(i))
				live = append(live, at)
			}
			popOne(step)
		}
	}
	q.normalize()
	for len(live) > 0 {
		popOne(-1)
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after drain: %d left", q.len())
	}
	q.appendBurst(1, 1)
	q.reset()
	if q.len() != 0 {
		t.Fatal("reset left events behind")
	}
}
