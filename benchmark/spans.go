package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); Start and End are nanoseconds since the
// tracer was created. Name is "<package>.<operation>".
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, which is how the untraced end-to-end
// samples share code with the traced replay. Single goroutine only: the
// traced replay is serial by design (self times of concurrent spans would
// overlap).
type tracer struct {
	RunID    string `json:"run_id"`
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`

	t0  time.Time
	cur int // innermost open span, -1 at top level
}

func newTracer(runID, workload string) *tracer {
	return &tracer{RunID: runID, Workload: workload, t0: time.Now(), cur: -1}
}

// begin opens a span under the innermost open one and returns its handle
// for end. Spans must be closed in LIFO order.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, span{Name: name, Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = len(t.Spans) - 1
	return t.cur
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.Spans[id].End = int64(time.Since(t.t0))
	t.cur = t.Spans[id].Parent
}

// mark is the current end of the span list; two marks delimit what ran
// between them.
func (t *tracer) mark() int { return len(t.Spans) }

// layerTime is what one span name did in a set of spans.
type layerTime struct {
	Count  int
	SelfNS int64 // duration minus the part covered by child spans
	SpanNS int64 // full duration
}

// selfTimes aggregates spans[from:to] by name. A span's self time is its
// duration minus the durations of its direct children; children never
// overlap each other (LIFO, one goroutine), so the subtraction is exact
// and self times over a tree sum to the roots' durations.
func (t *tracer) selfTimes(from, to int) map[string]layerTime {
	childNS := make(map[int]int64)
	for i := from; i < to; i++ {
		s := &t.Spans[i]
		if s.Parent >= from {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i := from; i < to; i++ {
		s := &t.Spans[i]
		lt := out[s.Name]
		lt.Count++
		lt.SpanNS += s.End - s.Start
		lt.SelfNS += s.End - s.Start - childNS[i]
		out[s.Name] = lt
	}
	return out
}

// write stores the trace as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
