package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the recorder's spans; -1 for a root
	Op     int    `json:"op"`     // spans of one operation share it
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same replay code runs untraced for the
// overhead measurement.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spanTotals is the per-name roll-up of a span set.
type spanTotals struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self times
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children,
// as under a parallel fan-out, are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// totals rolls the recorder's spans up by name.
func (r *recorder) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}

// writeJSON dumps the spans for offline inspection.
func (r *recorder) writeJSON(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
