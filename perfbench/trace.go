package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded around the call from the
// benchmark's side. Parent is 0 for a root; spans of one served request
// share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	// Start and End are offsets from the recorder's origin.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// id reserves a span ID, so a parent's ID can be handed to children
// before the parent ends.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved ID (0 reserves one).
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	r.mu.Unlock()
	return id
}

// write stores every span as one JSON line in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTime totals the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed self times
}

// selfTimes returns, per span name, the count, total duration and self
// time of its spans. A span's self time is its duration minus the part
// of its interval that its children cover; children running in parallel
// cover the union of their intervals, not the sum.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
