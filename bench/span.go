package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the harness from
// outside the program: around a public function of a layer or around an
// HTTP exchange. Spans of one op share Op; Parent is the span that
// caused this one (0 = root). Times are nanoseconds since the recorder
// was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run stays untraced.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was observed rather than timed
// here, e.g. a job's Started..Finished read from GET /jobs/{id}.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return len(r.spans)
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs clipped to
// [lo, hi]: overlapping children are counted once.
func covered(ivs []interval, lo, hi int64) int64 {
	var c []interval
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, end int64
	end = lo
	for _, iv := range c {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Open spans are skipped.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]interval{}
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}
