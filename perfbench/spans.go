package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the program itself is never instrumented.
type span struct {
	name       string
	parent     int // index into recorder.spans; -1 for the root
	start, end time.Duration
	id         string // expression or request the span belongs to
}

// containers are spans that only group layer calls; the time they cover
// outside any layer span is what the trace leaves unaccounted.
var containers = map[string]bool{"run": true, "expr": true}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the spans-off configuration: begin and end do nothing.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent and returns its index (-1 when off).
func (r *recorder) begin(name string, parent int, id string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: now, end: -1, id: id})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// spanTotals aggregates the recorded spans by name.
type spanTotals struct {
	total, self map[string]float64 // seconds
	// unaccounted is the share of the time spent directly inside
	// container spans (summed over workers) that no layer span covers.
	unaccounted float64
}

// summarize computes per-name total and self time (a span's duration
// minus the part of it its children cover) and the unaccounted share.
// Every span must be closed.
func (r *recorder) summarize() spanTotals {
	t := spanTotals{total: map[string]float64{}, self: map[string]float64{}}
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	var inLayers, outside float64
	for i, s := range r.spans {
		var iv [][2]time.Duration
		for _, c := range children[i] {
			iv = append(iv, [2]time.Duration{r.spans[c].start, r.spans[c].end})
		}
		dur := (s.end - s.start).Seconds()
		self := dur - covered(iv, s.start, s.end).Seconds()
		t.total[s.name] += dur
		t.self[s.name] += self
		switch {
		case containers[s.name]:
			outside += self
		case s.parent >= 0 && containers[r.spans[s.parent].name]:
			inLayers += dur
		}
	}
	if inLayers+outside > 0 {
		t.unaccounted = outside / (inLayers + outside)
	}
	return t
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}
