package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the package that owns the layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the span that caused this one
	Req    int64  `json:"req,omitempty"`    // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Val carries a count measured at the boundary (bytes written,
	// followers priced), when the layer has one.
	Val float64 `json:"val,omitempty"`
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent's id can travel with a request
// before the parent span ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved id. A nil tracer records
// nothing, so untraced code paths call it freely.
func (t *tracer) add(id int64, name string, parent, req int64, start, end time.Time, val float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Val: val,
	})
}

// leaf records a span nothing else points at.
func (t *tracer) leaf(name string, parent, req int64, start, end time.Time, val float64) {
	t.add(t.id(), name, parent, req, start, end, val)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns copies of the spans with the given name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	spans := t.named(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End-s.Start) / float64(unit)
	}
	return out
}

// unexplained returns the share (percent) of the root spans' total
// duration that no child span covers: the part of the workload's time
// its traced layers do not explain.
func (t *tracer) unexplained(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, self float64
	for _, s := range t.spans {
		if s.Name != root {
			continue
		}
		d := float64(s.End - s.Start)
		total += d
		self += d - covered(s, children[s.ID])
	}
	if total == 0 {
		return 0
	}
	return 100 * self / total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum float64
	cur, end := int64(math.MinInt64), int64(math.MinInt64)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > end {
			if end > cur {
				sum += float64(end - cur)
			}
			cur, end = s, e
			continue
		}
		end = max(end, e)
	}
	if end > cur {
		sum += float64(end - cur)
	}
	return sum
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
