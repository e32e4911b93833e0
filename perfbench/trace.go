package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the id of the span
// that caused this one, or -1 for a request's root span.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"startNs"` // since the tracer was created
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id (a no-op for -1).
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianOf is the median duration of the spans with this name.
func (t *tracer) medianOf(name string) time.Duration { return medianDur(t.durations(name)) }

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of it that its child spans cover.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
	P50Ms   float64 `json:"p50Ms"`
}

// summarize derives per-name totals and self times from the closed spans.
func (t *tracer) summarize() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]spanSummary)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(children[s.ID], s.Start, s.End)
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += ms(time.Duration(d))
		sum.SelfMs += ms(time.Duration(self))
		out[s.Name] = sum
		durs[s.Name] = append(durs[s.Name], ms(time.Duration(d)))
	}
	for name, sum := range out {
		sum.P50Ms = median(durs[name])
		out[name] = sum
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi].
func covered(cs []span, lo, hi int64) int64 {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	cur := lo
	for _, c := range cs {
		s, e := max(c.Start, cur), min(c.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the spans, their summary and the run's environment as JSON
// in dir, and returns the file's path.
func (t *tracer) write(dir, name string, env any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	summary := t.summarize()
	t.mu.Lock()
	doc := struct {
		Env     any                    `json:"env"`
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{env, summary, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
