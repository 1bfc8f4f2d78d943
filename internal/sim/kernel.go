// The replication kernel. One paper-scale Figures 6-9 grid is 7×9
// points × 2 policies × P·Q = 300·300 replications ≈ 11.3M simulator
// runs, so the per-run constant factor dominates the whole evaluation.
// Every policy runs on the one discrete-event loop below, and all
// per-run state lives in a runState that a Runner reuses, so a
// steady-state replication performs zero heap allocations.
//
// Pending completions live in a bucket calendar (a single-level timing
// wheel): a flat event arena threaded into intrusive per-bucket lists by
// bucket(t) = int(t*invW). Multiplication by a positive constant is
// monotone, so an earlier bucket never holds a later event. Events past
// the wheel's horizon chain into an overflow list. The calendar drains
// in one of two modes, fixed per replication:
//
//   - Set mode serves a staticRank policy or FIFO with no failures,
//     rollover, per-job means or observer, and makes every pop itself,
//     without a Policy call. It walks children in a topo-relabeled id
//     space, so a completion's children cluster in memory, and reports
//     the latest insert as the final completion. A staticRank policy is
//     a set — Next pops the minimum rank of the eligible set — so the
//     order of completions between two batch arrivals is unobservable:
//     eligibility goes straight into bitset words, and drain empties
//     whole buckets unsorted and filters only the boundary bucket. FIFO
//     pops in release order: first the sources, in g.Sources() order,
//     then for each completion in global (at, original id) order the
//     children whose last parent it was, in g's CSR order. So its
//     releases go onto a queue, the ring runs at exact mode's fine
//     resolution, and drainSorted completes each bucket's due events in
//     (at, original id) order.
//   - Exact mode serves everything else that consumes pop order
//     (RANDOM, TwoLevel, failure draws, rollover assignments, per-job
//     means, the Observer). next hands out completions one at a time in
//     global (at, job) order: the bucket being drained is loaded into a
//     sorted buffer, an insert that lands in it joins the buffer, and
//     overflow events cascade onto the ring as the base reaches them.
//
// Both modes draw randomness in the model's order — batch size, one job
// time per assignment, a failure draw per completion, interarrival — so
// an Oblivious policy or FIFO gives bit-identical metrics in either. The
// tests pin the kernel to a test-only copy of the original sort-merge
// kernel (runOrdered), a naive rescan specification, and the pre-engine
// goldens, and TestDrainModeCensus pins which runs take set mode.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/rng"
)

// buckets is the wheel size (a power of two). At the finest resolution
// start picks, the wheel spans 2*(JobTimeMean+8*JobTimeStdDev): at the
// paper's N(1, 0.1) job times a bucket covers ~0.44ms of simulated time,
// and a burst of 8192 assignments spreads across ~1800 buckets.
const buckets = 8192

// completion is a pending job completion, exact mode's unit of work.
type completion struct {
	at  float64
	job int32
}

// before is the exact drain order: completion time, ties (which only
// the 1e-3 job-time floor can produce) by job id.
func (c completion) before(d completion) bool {
	return c.at < d.at || c.at == d.at && c.job < d.job
}

// event is one pending completion in the calendar's arena: the
// completion time, the job id (topo-relabeled in set mode, original in
// exact mode), and the arena index of the next event in the same bucket
// (-1 ends the chain).
type event struct {
	at   float64
	job  int32
	next int32
}

// drainMode is how one replication drains the calendar (see the
// header): set mode for a rank policy or for FIFO, else exact mode.
type drainMode uint8

const (
	exactDrain drainMode = iota
	rankDrain            // set mode, eligibility in a rank bitset
	fifoDrain            // set mode, eligibility in a release-order queue
)

// runState is the pooled state of one worker's replications: the
// calendar, exact mode's sorted bucket, set mode's relabeled topology
// (rebuilt only when the dag changes) and rank tables (rebuilt only
// when the policy instance or the dag changes). The zero value is
// ready to use; buffers grow on first use and are then only truncated.
//
// rem and rank are deliberately separate arrays, not one fused record:
// the completion walk decrements rem once per arc but reads rank only
// once per node ever, so splitting halves the hot working set.
type runState struct {
	g     *dag.Frozen // relabeled-topology cache key
	owner *Oblivious  // rank-table cache key
	mode  drainMode   // the current (or last) replication's drain mode

	// pol, setPol and fifo memoize run's staticRank and *FIFO tests for
	// the policy of the previous replication. Asserting to an interface
	// type goes through the runtime until the call site's type cache
	// holds the policy's type, and the runtime grows that cache on the
	// heap about once per thousand such calls, so the tests run once
	// per policy instance instead of once per replication. Policies are
	// stateful, so every implementation is a pointer and compares by
	// identity.
	pol    Policy
	setPol *Oblivious
	fifo   bool

	// Set mode's topo-relabeled topology: node i is the i-th node of
	// g.Topo(), so sources are exactly the ids [0, nSources), in
	// g.Sources() order, and a completion's children cluster just after
	// it in id space. A node's children keep g's CSR order.
	childStart []int32
	children   []int32
	initRem    []int32
	rem        []int32 // remaining unexecuted parents
	rank       []int32 // position under the policy's total order
	jobOfRank  []int32 // rank -> topo-relabeled id
	nSources   int
	elig       bitset.MinSet

	// FIFO set mode's eligible jobs, in relabeled ids and in the order
	// they became eligible: queue is the unassigned suffix of qbuf. Each
	// job is released once per replication, so appends never outgrow
	// qbuf's n slots.
	queue []int32
	qbuf  []int32

	// remaining counts unexecuted parents in the original id space
	// (exact mode, which walks g's own CSR and calls the policy).
	remaining []int32

	// Bucket calendar. heads is a fixed-size array — not a slice — so
	// that masked bucket indexing (vi & (buckets-1), plus the constant
	// overflow slot) is provably in-bounds and the hot drain and insert
	// loops compile without bounds checks.
	events  []event
	heads   [buckets + 1]int32 // buckets ring slots + 1 overflow slot
	invW    float64            // buckets per unit simulated time
	baseVi  int                // wheel base: live ring events are in [baseVi, baseVi+buckets)
	live    int                // events in the ring
	overCnt int                // events in the overflow chain
	overMin float64            // minimum time in the overflow chain
	// occ has one bit per non-empty ring slot, so a drain jumps empty
	// ranges by trailing-zero scans instead of probing heads.
	occ [buckets / 64]uint64
	// maxIns is the latest completion time ever scheduled: set mode's
	// final completion, since there every event completes and drain
	// windows advance in time.
	maxIns float64
	// clean records that the last replication ran to completion, which
	// leaves every chain empty: start then skips clearing the heads.
	clean bool

	// cur is exact mode's current bucket, baseVi, sorted by (at, job):
	// cur[ci:] is still pending. The ring then holds only later
	// buckets; an insert at or before baseVi goes into cur. FIFO set
	// mode sorts each bucket's due events into it.
	cur []completion
	ci  int
}

// buildTopo derives set mode's topo-relabeled topology for g, reusing
// every buffer whose size still fits. The rank tables are relative to
// the relabeling, so it also drops their cache key.
func (st *runState) buildTopo(g *dag.Frozen) {
	n := g.NumNodes()
	st.g, st.owner = g, nil
	topo, pos := g.Topo(), g.TopoPositions()
	cs, ch := g.ChildCSR()
	st.childStart = resize(st.childStart, n+1)
	st.children = resize(st.children, int(cs[n]))
	st.initRem = resize(st.initRem, n)
	st.rem = resize(st.rem, n)
	w := int32(0)
	for i, v := range topo {
		st.childStart[i] = w
		for ci := cs[v]; ci < cs[v+1]; ci++ {
			st.children[w] = pos[ch[ci]]
			w++
		}
		st.initRem[i] = int32(g.InDegree(int(v)))
	}
	st.childStart[n] = w
	st.nSources = len(g.Sources())
}

// buildRank derives the rank tables of o's order over the relabeled
// topology buildTopo last built. Rebuilding for a policy change on the
// same dag touches no allocator.
func (st *runState) buildRank(o *Oblivious) {
	order := o.StaticOrder()
	n := st.g.NumNodes()
	if len(order) != n {
		panic(fmt.Sprintf("sim: order covers %d jobs, dag has %d", len(order), n))
	}
	st.owner = o
	pos := st.g.TopoPositions()
	st.rank = resize(st.rank, n)
	st.jobOfRank = resize(st.jobOfRank, n)
	for r, v := range order {
		j := pos[v]
		st.jobOfRank[r] = j
		st.rank[j] = int32(r)
	}
}

// resize returns s if it has length n, else a fresh zeroed slice.
func resize(s []int32, n int) []int32 {
	if len(s) != n {
		return make([]int32, n)
	}
	return s
}

// start resets st for a replication of g in the given drain mode: an
// empty calendar whose resolution suits p's job-time distribution and
// the mode, and that mode's remaining-parents counters. Set mode also
// seeds its eligible set (the sources' ranks, or the sources in
// g.Sources() order); exact mode leaves eligibility to the policy. The
// arena is pre-sized to the job count — a job is pending at most once
// at a time, so only re-assignments after failures grow it — and so
// are the bucket buffer and the FIFO queue.
//
//prio:nobce
func (st *runState) start(g *dag.Frozen, p Params, mode drainMode) {
	st.mode = mode
	n := g.NumNodes()
	if !st.clean {
		for i := range st.heads {
			st.heads[i] = -1
		}
		for i := range st.occ {
			st.occ[i] = 0
		}
	}
	st.clean = false
	if cap(st.events) < n {
		st.events = make([]event, 0, n)
	}
	st.events = st.events[:0]
	// res is buckets per effective job-time span. Rank set mode never
	// sorts, so it walks few, full buckets. Exact and FIFO set mode sort
	// every bucket they drain, so their resolution tracks the mean
	// burst, landing a few events per bucket, up to a wheel spanning two
	// job-time spans.
	span := p.JobTimeMean + 8*p.JobTimeStdDev + 1e-3
	res := float64(buckets / 16)
	if mode != rankDrain {
		res = math.Min(math.Max(p.BatchSize, buckets/16), buckets/2)
	}
	st.invW = res / span
	st.baseVi = 0
	st.live = 0
	st.overCnt = 0
	st.overMin = math.Inf(1)
	st.maxIns = 0
	st.cur = st.cur[:0]
	st.ci = 0
	if mode != rankDrain && cap(st.cur) < n {
		st.cur = make([]completion, 0, n)
	}
	if mode == exactDrain {
		st.remaining = resize(st.remaining, n)
		remaining := st.remaining
		for v := range remaining {
			remaining[v] = int32(g.InDegree(v))
		}
		return
	}
	copy(st.rem, st.initRem)
	nSources := st.nSources
	if mode == fifoDrain {
		st.qbuf = resize(st.qbuf, n)
		if uint(nSources) > uint(len(st.qbuf)) {
			panic("sim: start: sources exceed the job count")
		}
		q := st.qbuf[:nSources]
		for i := range q {
			q[i] = int32(i)
		}
		st.queue = q
		return
	}
	rank := st.rank
	if nSources > len(rank) {
		panic("sim: start: sources exceed rank table")
	}
	st.elig.Reset(len(st.rem))
	for i := 0; i < nSources; i++ {
		st.elig.Add(int(rank[i]))
	}
}

// insert schedules the completion of job at time at on the ring, or
// on the overflow chain past the wheel's horizon. Both slot values are
// provably in-bounds for the heads array: the ring branch masks with
// buckets-1 and the overflow branch uses the constant last slot.
//
//prio:nobce
func (st *runState) insert(at float64, job int32) {
	if at > st.maxIns {
		st.maxIns = at
	}
	i := int32(len(st.events))
	vi := int(at * st.invW)
	slot := uint(buckets)
	if vi-st.baseVi < buckets {
		slot = uint(vi) & (buckets - 1)
		st.occ[(slot>>6)&(buckets/64-1)] |= 1 << (slot & 63)
		st.live++
	} else {
		if at < st.overMin {
			st.overMin = at
		}
		st.overCnt++
	}
	// The clamp never fires (slot is buckets or a masked ring index);
	// it hands the prover the upper bound the branch merge loses, so
	// both heads accesses are check-free.
	if slot > buckets {
		slot = buckets
	}
	st.events = append(st.events, event{at: at, job: job, next: st.heads[slot]})
	st.heads[slot] = i
}

// complete processes one set-mode completion: walk the children
// sequentially in the relabeled CSR, decrement their remaining-parent
// counters, and release every node whose last parent this was — onto
// the back of the FIFO queue, or as a rank bit.
//
// The cold guards up front replace the per-iteration implicit bounds
// checks: a corrupt CSR (never built by buildTopo) panics once at entry,
// and past the guards every index in the walk is provably in-bounds —
// children by ci < end <= len(children), rem by the per-child uint
// guard, and rank by the reslice pinning len(rank) to len(rem).
//
//prio:nobce
func (st *runState) complete(job int32) {
	cs, children := st.childStart, st.children
	j := int(job)
	if uint(j) >= uint(len(cs)) {
		panic("sim: complete: job out of range")
	}
	ci := int(cs[j])
	jn := j + 1
	if uint(jn) >= uint(len(cs)) {
		panic("sim: complete: job out of range")
	}
	end := int(cs[jn])
	if ci < 0 || end > len(children) {
		panic("sim: complete: corrupt child CSR")
	}
	rem := st.rem
	if st.mode == fifoDrain {
		q := st.queue
		for ; ci < end; ci++ {
			c := int(children[ci])
			if uint(c) >= uint(len(rem)) {
				panic("sim: complete: child id out of range")
			}
			rem[c]--
			if rem[c] == 0 {
				q = append(q, int32(c))
			}
		}
		st.queue = q
		return
	}
	rank := st.rank
	if len(rank) < len(rem) {
		panic("sim: complete: rank table too short")
	}
	rank = rank[:len(rem)]
	for ; ci < end; ci++ {
		c := int(children[ci])
		if uint(c) >= uint(len(rem)) {
			panic("sim: complete: child id out of range")
		}
		rem[c]--
		if rem[c] == 0 {
			st.elig.Add(int(rank[c]))
		}
	}
}

// nextOcc returns the ring distance from slot s to the nearest
// occupied slot at or after s, wrapping past the top of the ring. The
// ring must be non-empty (live > 0), or the scan would not terminate.
// s must be an in-range slot (callers mask with buckets-1); the word
// index mask makes that provable, so the occupancy scan carries no
// bounds checks.
//
//prio:nobce
//prio:inline
func (st *runState) nextOcc(s int) int {
	w := (s >> 6) & (buckets/64 - 1)
	if word := st.occ[w] >> (uint(s) & 63); word != 0 {
		return bits.TrailingZeros64(word)
	}
	for d := 1; ; d++ {
		if word := st.occ[(w+d)&(buckets/64-1)]; word != 0 {
			return d<<6 - s&63 + bits.TrailingZeros64(word)
		}
	}
}

// drain is set mode's window drain: it processes every pending
// completion with time <= T (all of them when all is set), in bucket
// order, and returns how many completed. Whole buckets strictly before
// the boundary complete without any comparison; the boundary bucket is
// filtered by comparison and its survivors relinked. The boundary
// bucket is always the last one visited: no event <= T can hide in a
// later bucket. FIFO's windows go bucket by bucket through drainSorted
// instead, since the order of its releases is the order of its pops; a
// drain-all serves no further batch, so it skips the sort.
//
// The bucket chains walk with uint(i) < uint(len(events)) as the loop
// condition: it folds the chain-end test (next == -1 wraps to a huge
// uint) and the arena bound into one compare, so the event loads carry
// no bounds checks. An in-range but corrupt chain index would end the
// walk early instead of panicking; arena indices come only from append
// positions in insert, so no such index exists.
//
//prio:nobce
func (st *runState) drain(T float64, all bool) int {
	done := 0
	events := st.events
	Tvi := int(T * st.invW)
	vi := st.baseVi
	sorted := st.mode == fifoDrain && !all
	for st.live > 0 {
		// Jump to the next occupied bucket; every live ring event is
		// within one ring turn of the base.
		vi += st.nextOcc(vi & (buckets - 1))
		if !all && vi > Tvi {
			break
		}
		slot := vi & (buckets - 1)
		if sorted {
			done += st.drainSorted(slot, T)
			if vi == Tvi {
				break // the boundary bucket
			}
		} else if all || vi < Tvi {
			// The whole bucket is inside the window.
			for i := int(st.heads[slot]); uint(i) < uint(len(events)); i = int(events[i].next) {
				st.complete(events[i].job)
				done++
				st.live--
			}
			st.heads[slot] = -1
			st.occ[(slot>>6)&(buckets/64-1)] &^= 1 << (uint(slot) & 63)
		} else {
			// Boundary bucket: filter by time, relink survivors.
			nh := int32(-1)
			for i := int(st.heads[slot]); uint(i) < uint(len(events)); {
				ev := &events[i]
				next := int(ev.next)
				if ev.at <= T {
					st.complete(ev.job)
					done++
					st.live--
				} else {
					ev.next = nh
					nh = int32(i)
				}
				i = next
			}
			st.heads[slot] = nh
			if nh < 0 {
				st.occ[(slot>>6)&(buckets/64-1)] &^= 1 << (uint(slot) & 63)
			}
			break
		}
		vi++
	}
	if !all {
		// The wheel base follows the drain threshold: every live ring
		// event is now > T, i.e. in [Tvi, Tvi+buckets).
		st.baseVi = Tvi
	}
	if st.overCnt > 0 {
		// Set mode inserts only at a batch time, which is the base, and
		// Box-Muller draws stay within 8.6 sigma, so a job time never
		// reaches the horizon of at least 2*(JobTimeMean+8*JobTimeStdDev).
		panic("sim: set-mode completion past the wheel horizon")
	}
	return done
}

// drainSorted completes the events of ring slot that are due by T in
// the exact drain's (at, original id) order, relinks the rest, and
// returns how many completed. FIFO's queue is its pop order, and a
// completion appends its released children to the queue, so the
// completions of a window must run in that order, where a rank policy
// pops the same minimum whatever order its bits were set in. A bucket
// holds a few events at FIFO's resolution, so the due ones are
// insertion-sorted into cur, comparing original ids only on a tie in
// time.
//
//prio:nobce
func (st *runState) drainSorted(slot int, T float64) int {
	s := uint(slot) & (buckets - 1)
	events, topo := st.events, st.g.Topo() // relabeled id -> original id
	due := st.cur[:0]
	nh := int32(-1)
	for i := int(st.heads[s]); uint(i) < uint(len(events)); {
		ev := &events[i]
		next := int(ev.next)
		if ev.at <= T {
			c := completion{at: ev.at, job: ev.job}
			due = append(due, c) // cur holds n, a bucket at most n
			for k := len(due) - 1; k > 0; k-- {
				d := due[k-1]
				if c.at > d.at || c.at == d.at && origAfter(topo, c.job, d.job) {
					break
				}
				due[k], due[k-1] = d, c
			}
		} else {
			ev.next = nh
			nh = int32(i)
		}
		i = next
	}
	st.heads[s] = nh
	if nh < 0 {
		st.occ[(s>>6)&(buckets/64-1)] &^= 1 << (s & 63)
	}
	st.cur = due
	for _, c := range due {
		st.complete(c.job)
	}
	st.live -= len(due)
	return len(due)
}

// origAfter reports whether relabeled job a comes after b in original
// id order. A job is pending at most once, so a != b.
//
//prio:inline
func origAfter(topo []int32, a, b int32) bool {
	i, j := int(a), int(b)
	if uint(i) >= uint(len(topo)) || uint(j) >= uint(len(topo)) {
		panic("sim: drainSorted: job out of range")
	}
	return topo[i] > topo[j]
}

// assignBatch serves a set-mode batch of size requests arriving at
// now: it pops the front of the FIFO queue or the lowest eligible
// ranks, and schedules each job's completion, drawing job times in pop
// order. It returns how many requests were filled.
//
//prio:nobce
func (st *runState) assignBatch(p *Params, src *rng.Source, now float64, size int) int {
	fifo := st.mode == fifoDrain
	q, jobOfRank := st.queue, st.jobOfRank
	served := 0
	for served < size {
		var j int32
		if fifo {
			if len(q) == 0 {
				break
			}
			j, q = q[0], q[1:]
		} else {
			r, ok := st.elig.PopMin()
			if !ok {
				break
			}
			if uint(r) >= uint(len(jobOfRank)) {
				panic("sim: assignBatch: rank out of range")
			}
			j = jobOfRank[r]
		}
		served++
		d := src.Normal(p.JobTimeMean, p.JobTimeStdDev)
		if d < 1e-3 {
			d = 1e-3 // a job cannot run backwards in time
		}
		st.insert(now+d, j)
	}
	st.queue = q
	return served
}

// push schedules an exact-mode completion: on the calendar, or, at or
// before the bucket being drained, straight into cur. The latter is a
// rollover job whose time was clamped below a bucket's width, or a
// batch served after a failure reopened assignment.
func (st *runState) push(at float64, job int32) {
	if int(at*st.invW) > st.baseVi {
		st.insert(at, job)
		return
	}
	st.place(completion{at: at, job: job})
}

// place inserts ev into cur's pending tail in (at, job) order. A bucket
// holds a handful of events, so insertion beats any cleverer sort.
func (st *runState) place(ev completion) {
	st.cur = append(st.cur, ev) // self-append: amortized high-water-mark growth
	i := len(st.cur) - 1
	for ; i > st.ci && ev.before(st.cur[i-1]); i-- {
		st.cur[i] = st.cur[i-1]
	}
	st.cur[i] = ev
}

// next removes and returns the earliest pending completion in exact
// (at, job) order, provided it is due by T (whatever its time, when all
// is set).
func (st *runState) next(T float64, all bool) (completion, bool) {
	for st.ci >= len(st.cur) {
		if !st.advance(T, all) {
			return completion{}, false
		}
	}
	ev := st.cur[st.ci]
	if !all && ev.at > T {
		return completion{}, false
	}
	st.ci++
	return ev, true
}

// advance moves the exact drain's base to the next occupied bucket due
// by T (any, when all is set) and loads that bucket into cur. That is
// the ring's first occupied bucket after the base or, on an empty ring,
// the overflow minimum's: cascade keeps the chain beyond the ring. When
// no bucket is due it reports false with cur empty, and the base moves
// up to T's bucket so that inserts at or after T stay on the ring.
func (st *runState) advance(T float64, all bool) bool {
	st.cur = st.cur[:0]
	st.ci = 0
	vi := math.MaxInt
	if st.live > 0 {
		s := st.baseVi + 1
		vi = s + st.nextOcc(s&(buckets-1))
	} else if st.overCnt > 0 {
		vi = int(st.overMin * st.invW)
	}
	if Tvi := int(T * st.invW); !all && vi > Tvi {
		if Tvi > st.baseVi {
			st.baseVi = Tvi
			st.cascade()
		}
		return false
	}
	if vi == math.MaxInt {
		return false
	}
	st.baseVi = vi
	st.cascade()
	slot := uint(vi) & (buckets - 1)
	events := st.events
	for i := int(st.heads[slot]); uint(i) < uint(len(events)); i = int(events[i].next) {
		st.place(completion{at: events[i].at, job: events[i].job})
		st.live--
	}
	st.heads[slot] = -1
	st.occ[(slot>>6)&(buckets/64-1)] &^= 1 << (slot & 63)
	return true
}

// cascade moves the overflow events that the advancing base has
// brought within the wheel's horizon onto the ring, so every overflow
// event stays later than every ring event. A pass is linear in the
// chain but runs only when the base reaches the chain's minimum.
//
//prio:nobce
func (st *runState) cascade() {
	if st.overCnt == 0 || int(st.overMin*st.invW)-st.baseVi >= buckets {
		return
	}
	events := st.events
	nh := int32(-1)
	min := math.Inf(1)
	for i := int(st.heads[buckets]); uint(i) < uint(len(events)); {
		ev := &events[i]
		next := int(ev.next)
		if vi := int(ev.at * st.invW); vi-st.baseVi < buckets {
			slot := uint(vi) & (buckets - 1)
			ev.next = st.heads[slot]
			st.heads[slot] = int32(i)
			st.occ[(slot>>6)&(buckets/64-1)] |= 1 << (slot & 63)
			st.live++
			st.overCnt--
		} else {
			if ev.at < min {
				min = ev.at
			}
			ev.next = nh
			nh = int32(i)
		}
		i = next
	}
	st.heads[buckets] = nh
	st.overMin = min
}

// Runner owns the pooled state for repeated replications on one dag:
// a runState and a random source reseeded in place per run. In steady
// state (after buffer capacities and the policy's internal state have
// grown to the dag's high-water mark) Run performs zero heap
// allocations; the experiment engine keeps one Runner per worker for
// the whole grid. A Runner is not safe for concurrent use.
type Runner struct {
	g   *dag.Frozen
	st  runState
	src *rng.Source
}

// NewRunner returns a Runner for repeated simulations of g.
func NewRunner(g *dag.Frozen) *Runner {
	return &Runner{g: g, src: rng.New(0)}
}

// Run simulates one execution of the Runner's dag under pol with the
// given replication seed. It is equivalent to
// sim.Run(g, p, pol, rng.New(seed)) — bit-identical metrics — without
// the per-replication allocations.
func (r *Runner) Run(p Params, pol Policy, seed uint64) Metrics {
	r.src.Reseed(seed)
	return r.st.run(r.g, p, pol, r.src, nil)
}

// run is the discrete-event loop shared by Run, RunObserved, and
// Runner.Run. All mutable per-replication state lives in st, the
// policy, and src; the loop allocates nothing once st's buffers have
// grown to the dag's high-water mark.
func (st *runState) run(g *dag.Frozen, p Params, pol Policy, src *rng.Source, obs Observer) Metrics {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := g.NumNodes()
	if m := len(p.JobMeans); m != 0 && m != n {
		panic(fmt.Errorf("sim: JobMeans has %d entries for a dag of %d jobs", m, n))
	}
	if n == 0 {
		return Metrics{}
	}

	// Set mode needs a policy whose pops the kernel can make itself —
	// one with set semantics (see staticRank), or FIFO — and a run that
	// never branches on pop order; everything else drains in exact
	// order.
	if pol != st.pol {
		st.pol, st.setPol = pol, nil
		_, st.fifo = pol.(*FIFO)
		if sr, ok := pol.(staticRank); ok {
			st.setPol = sr.setCore()
		}
	}
	mode := exactDrain
	if obs == nil && p.FailureProb == 0 && !p.RolloverWorkers && len(p.JobMeans) == 0 {
		if st.setPol != nil {
			mode = rankDrain
		} else if st.fifo {
			mode = fifoDrain
		}
	}
	exact := mode == exactDrain
	if !exact && st.g != g {
		st.buildTopo(g)
	}
	if mode == rankDrain && st.owner != st.setPol {
		st.buildRank(st.setPol)
	}
	st.start(g, p, mode)
	if exact {
		pol.Start(g, src)
		for _, v := range g.Sources() {
			pol.Eligible(int(v))
		}
	}
	remaining := st.remaining // exact mode: unexecuted parents
	childStart, children := g.ChildCSR()

	now := 0.0
	nextBatch := 0.0 // first batch arrives at time 0
	unassigned := n  // jobs not yet handed to a worker
	executed := 0
	lastCompletion := 0.0
	batches, stalls, requests := 0, 0, 0
	waiting := 0 // rolled-over unfilled requests (RolloverWorkers only)

	// assign hands job v to a worker at now (exact mode). The closure
	// does not escape, so it and its captures stay on the stack.
	assign := func(v int) {
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
			d = 1e-3 // a job cannot run backwards in time
		}
		st.push(now+d, int32(v))
	}

	for executed < n {
		// Advance to the earlier of the next batch arrival and the next
		// completion. Completions at the same instant as a batch are
		// processed first: their children are eligible for that batch.
		if !exact {
			executed += st.drain(nextBatch, unassigned == 0)
		}
		for exact {
			ev, ok := st.next(nextBatch, unassigned == 0)
			if !ok {
				break
			}
			now = ev.at
			if p.FailureProb > 0 && src.Float64() < p.FailureProb {
				// The worker failed: the job is unexecuted and eligible
				// again, waiting for a future request.
				unassigned++
				if obs != nil {
					obs.Failed(now, int(ev.job))
				}
				pol.Eligible(int(ev.job))
				continue
			}
			executed++
			lastCompletion = now
			if obs != nil {
				obs.Completed(now, int(ev.job))
			}
			for ci, end := childStart[ev.job], childStart[ev.job+1]; ci < end; ci++ {
				c := children[ci]
				remaining[c]--
				if remaining[c] == 0 {
					pol.Eligible(int(c))
				}
			}
			// Rolled-over workers take newly eligible jobs immediately.
			for waiting > 0 && unassigned > 0 {
				v, ok := pol.Next()
				if !ok {
					break
				}
				waiting--
				assign(v)
			}
		}
		if executed == n {
			break
		}
		if unassigned == 0 {
			continue // drain remaining completions
		}

		// Batch arrival.
		now = nextBatch
		size := batchSize(src, p.BatchSize)
		batches++
		requests += size
		served := 0
		if exact {
			for served < size {
				v, ok := pol.Next()
				if !ok {
					break
				}
				served++
				assign(v)
			}
		} else {
			served = st.assignBatch(&p, src, now, size)
			unassigned -= served
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
	// Every chain is empty again: the next start can skip clearing.
	st.clean = true

	if !exact {
		// Set mode never tracked pops: every scheduled event completed
		// and drain windows advance in time, so the latest insert is
		// the final completion.
		lastCompletion = st.maxIns
	}
	m := Metrics{
		ExecutionTime: lastCompletion,
		Batches:       batches,
		Requests:      requests,
	}
	if batches > 0 {
		m.StallProbability = float64(stalls) / float64(batches)
	}
	if requests > 0 {
		m.Utilization = float64(n) / float64(requests)
	}
	return m
}
