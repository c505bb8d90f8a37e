package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark's own code into a layer.
// Layer names follow the repository's packages (model, reduce,
// nullspace, core, store, linalg, bptree, elmocomp, parallel, dnc,
// distrib, revsearch, ondemand, lp, jobs, server); Name is
// "<layer>.<call>". Op ties every span of one operation together.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = operation root
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer was created
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so operation code is
// written once and runs both ways.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for an operation root) and
// returns its id; end closes it. Spans may nest and may be opened from
// several goroutines.
func (t *tracer) begin(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(op, name string, parent int, f func()) {
	id := t.begin(op, name, parent)
	f()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval covered by its children (children running
// concurrently are merged, not double-subtracted).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered measures the union of the intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]float64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curLo, curHi := 0.0, lo, lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}
