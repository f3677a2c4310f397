package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Name is "<layer>.<call>"; spans named "bench.*" are the
// benchmark's own orchestration (a pass, a sweep, a request) and
// belong to no layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Op     string `json:"op"` // cell, job key or request id
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Placed marks a span whose duration the program reported but
	// whose position inside its parent is not known; it is placed at
	// the end of the parent so that self times stay exact.
	Placed bool `json:"placed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op returning span id 0.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// addPlaced records a child of parent whose duration d is known but
// whose position is not (see span.Placed).
func (t *tracer) addPlaced(name, op string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: p.End - int64(d), End: p.End, Placed: true})
}

// open starts a span whose end is not known yet; close finishes it.
// Children may be added between the two.
func (t *tracer) open(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = int64(now.Sub(t.epoch))
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(name, op string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, op, parent, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span { return t.since(0) }

// mark returns a position for since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark m. A child
// always follows its parent, so the copy's parent links stay inside it
// unless the parent was recorded before m.
func (t *tracer) since(m int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// nameStat totals the spans of one name.
type nameStat struct {
	n           int
	total, self time.Duration
}

// byName totals spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func byName(spans []span) map[string]*nameStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*nameStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &nameStat{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// totalOf returns the summed duration of the spans named name.
func totalOf(stats map[string]*nameStat, name string) time.Duration {
	if st := stats[name]; st != nil {
		return st.total
	}
	return 0
}

// selfTimes returns the summed self time of each layer's spans.
func selfTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, st := range byName(spans) {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.self
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
