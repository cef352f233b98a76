package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call it makes. Times are offsets from the tracer's origin.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds a run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced passes share the traced code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active is an open span; end closes it.
type active struct {
	t *tracer
	s span
}

// begin opens a span named name in trace, under parent (nil for a root).
func (t *tracer) begin(trace, name string, parent *active) *active {
	if t == nil {
		return nil
	}
	a := &active{t: t, s: span{Trace: trace, Name: name, Start: time.Since(t.origin)}}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	t.mu.Lock()
	a.s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{}) // reserve the slot end fills in
	t.mu.Unlock()
	return a
}

// end closes the span and returns its duration (0 on a nil tracer).
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	a.s.End = time.Since(a.t.origin)
	a.t.mu.Lock()
	a.t.spans[a.s.ID-1] = a.s
	a.t.mu.Unlock()
	return a.s.dur()
}

// layerTotals is one span name's aggregate: call count, total time and
// self time (total minus the part covered by child spans).
type layerTotals struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarize aggregates closed spans by name, computing self time as each
// span's duration minus the union of its children's intervals.
func summarize(spans []span) []layerTotals {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTotals{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTotals{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTotals, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// printSummary writes each layer's call count, total and self time.
func printSummary(w io.Writer, totals []layerTotals, overhead time.Duration) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, lt := range totals {
		fmt.Fprintf(w, "%-28s %8d %12.6f %12.6f\n", lt.Name, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
	}
	fmt.Fprintf(w, "tracing overhead (traced wall_s - untraced wall_s): %.6f s\n", overhead.Seconds())
}

// writeSpans saves the spans as JSON under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
