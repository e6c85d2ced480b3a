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

// span is one timed benchmark call into a layer: its name, the trace it
// belongs to (one sweep or one campaign), the span that caused it (0 for
// a root) and its interval relative to the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so measured code calls it
// unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(trace, name string, parent int, from, to time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: from.Sub(t.epoch), End: to.Sub(t.epoch)})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children's intervals cover (overlapping
// children count once). Unclosed spans are skipped.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// [from, to].
func covered(from, to time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, from), min(k.End, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// rootSelfSums adds up, for every root span, the self times of the root
// and all its descendants. With properly nested, non-overlapping
// siblings the sum never exceeds the root's duration.
func rootSelfSums(spans []span, self map[int]time.Duration) map[int]time.Duration {
	parent := make(map[int]int, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id int) int {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	sums := map[int]time.Duration{}
	for id, d := range self {
		sums[root(id)] += d
	}
	return sums
}

// selfByName aggregates self time per span name, in milliseconds.
func selfByName(spans []span, self map[int]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		if d, ok := self[s.ID]; ok {
			out[s.Name] += float64(d) / float64(time.Millisecond)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, each with its self time.
func writeSpans(path string, spans []span, self map[int]time.Duration) error {
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
		rec := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
