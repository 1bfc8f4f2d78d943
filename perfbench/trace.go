package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans that belong to
// the same file or request share an id; parent is the index of the
// enclosing span in the recorder, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write dumps them when the run ends. A
// disabled recorder costs one branch per call, so untraced code paths
// can call it unconditionally.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its handle; end closes it.
func (r *recorder) begin(name, id string, parent int) int {
	if !r.on {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(h int) {
	if h < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// setEnd closes a span at a time measured elsewhere.
func (r *recorder) setEnd(h int, t time.Time) {
	if h < 0 {
		return
	}
	r.mu.Lock()
	r.spans[h].End = int64(t.Sub(r.t0))
	r.mu.Unlock()
}

// add records an interval measured elsewhere (for example a child
// process's wall time), anchored at start.
func (r *recorder) add(name, id string, parent int, start time.Time, d time.Duration) int {
	if !r.on {
		return -1
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: s, End: s + int64(d)})
	return len(r.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var cover []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				cover = append(cover, iv{a, b})
			}
		}
		sort.Slice(cover, func(x, y int) bool { return cover[x].a < cover[y].a })
		var covered, hi int64 = 0, s.Start
		for _, c := range cover {
			if c.b <= hi {
				continue
			}
			covered += c.b - max(c.a, hi)
			hi = c.b
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// stageSumTolerance is the largest relative gap the stage-sum check
// accepts between the self times of one id's spans and that id's traced
// total. Properly nested, non-overlapping spans meet it exactly; spans
// that overlap their siblings or stick out of their parent do not.
const stageSumTolerance = 0.001

// stageSums checks, per id, that the self times of its spans add up to
// the duration of its root spans, and returns the ids that fail.
func stageSums(spans []span) (checked int, bad []string) {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	total := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < 0 {
			bad = append(bad, s.ID+" (open span "+s.Name+")")
			continue
		}
		sum[s.ID] += self[i]
		if s.Parent < 0 {
			total[s.ID] += s.dur()
		}
	}
	ids := make([]string, 0, len(total))
	for id := range total {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		gap := sum[id] - total[id]
		if gap < 0 {
			gap = -gap
		}
		if float64(gap) > stageSumTolerance*float64(total[id]) {
			bad = append(bad, fmt.Sprintf("%s (stages %v, total %v)", id, sum[id], total[id]))
		}
	}
	return len(ids), bad
}

// selfByID sums self time in milliseconds per span id and name.
func selfByID(spans []span) map[string]map[string]float64 {
	self := selfTimes(spans)
	out := map[string]map[string]float64{}
	for i, s := range spans {
		if out[s.ID] == nil {
			out[s.ID] = map[string]float64{}
		}
		out[s.ID][s.Name] += ms(self[i])
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if !r.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n", s.Name, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
