package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog is the benchmark's own tracer: spans recorded around its calls
// into each layer, kept in memory and written out when the run ends. A
// nil *spanLog records nothing, which is how the untraced run measures
// with tracing off.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed interval; Parent is the ID of the span that caused
// it (0 for a root). IDs are 1-based indices into the log.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// start opens a span and returns its ID (0 on a nil log).
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Now()})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every closed span
// of that name: its duration minus the part of its interval that its
// children cover.
func (l *spanLog) selfTimes() map[string][]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 && !s.End.IsZero() {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		out[s.Name] = append(out[s.Name], s.End.Sub(s.Start)-covered(s, kids[s.ID]))
	}
	return out
}

// durations returns, per span name, the duration of every closed span.
func (l *spanLog) durations() map[string][]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]time.Duration{}
	for _, s := range l.spans {
		if !s.End.IsZero() {
			out[s.Name] = append(out[s.Name], s.End.Sub(s.Start))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, c := range children {
		s, e := c.Start, c.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
