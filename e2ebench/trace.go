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

// span is one timed interval at a layer boundary. Spans of one run or
// request share Trace; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder was created.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span identifier.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// at converts a wall-clock time to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span under a reserved id.
func (r *recorder) add(trace, id, parent uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: r.at(start), End: r.at(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes each layer's self time: a span's duration minus
// the part of its interval that its children cover (children that run
// in parallel are counted once, as the union of their intervals).
func selfTimes(spans []span) []layerTime {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, kids[s.ID])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
