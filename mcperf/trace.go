package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run. Spans nest by Parent;
// spans of one request or leg share Unit.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run writes them out. It is safe
// for concurrent use; a nil *Recorder records nothing, which is how the
// untraced run pays no tracing cost.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a finished span and returns its id (0 on a nil recorder).
func (r *Recorder) Add(parent int, name, unit string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Unit: unit,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// Open records a span that starts now; Close sets its end.
func (r *Recorder) Open(parent int, name, unit string) int {
	now := time.Now()
	return r.Add(parent, name, unit, now, now)
}

// Close ends span id now.
func (r *Recorder) Close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = int64(now.Sub(r.epoch))
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes splits the wall time of span root among the names of the spans
// beneath it (root included). At every instant the time goes to the
// innermost active spans, in equal shares when several run at once (two
// clients, two engine workers), so the shares always sum to the root's
// duration: a span's self time is its duration minus the part its children
// cover. Children are clipped to their parent's interval.
func selfTimes(spans []Span, root int) map[string]time.Duration {
	byID := make(map[int]Span, len(spans))
	kids := make(map[int][]int)
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s.ID)
	}
	type event struct {
		at    int64
		id    int
		start bool
	}
	var events []event
	var walk func(id int, lo, hi int64)
	walk = func(id int, lo, hi int64) {
		s := byID[id]
		start, end := max(s.Start, lo), min(s.End, hi)
		if end <= start {
			return
		}
		events = append(events, event{start, id, true}, event{end, id, false})
		for _, k := range kids[id] {
			walk(k, start, end)
		}
	}
	rs, ok := byID[root]
	if !ok {
		return nil
	}
	walk(root, rs.Start, rs.End)
	// Ends sort before starts at the same instant, so back-to-back siblings
	// never count as overlapping.
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].start && events[j].start
	})

	out := make(map[string]time.Duration)
	active := make(map[int]bool)
	activeKids := make(map[int]int) // per span: how many of its children are active
	var last int64
	for _, ev := range events {
		if dt := ev.at - last; dt > 0 && len(active) > 0 {
			var leaves []int
			for id := range active {
				if activeKids[id] == 0 {
					leaves = append(leaves, id)
				}
			}
			share := time.Duration(dt) / time.Duration(len(leaves))
			rem := time.Duration(dt) - share*time.Duration(len(leaves))
			sort.Ints(leaves) // deterministic owner of the rounding remainder
			for i, id := range leaves {
				d := share
				if i == 0 {
					d += rem
				}
				out[byID[id].Name] += d
			}
		}
		last = ev.at
		p := byID[ev.id].Parent
		if ev.start {
			active[ev.id] = true
			if ev.id != root {
				activeKids[p]++
			}
		} else {
			delete(active, ev.id)
			if ev.id != root {
				activeKids[p]--
			}
		}
	}
	return out
}
