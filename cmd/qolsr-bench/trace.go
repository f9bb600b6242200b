package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call from the harness into a layer. Spans are recorded
// only at the harness's own call sites — the layers are not instrumented —
// so the tree is shallow: a phase span with the per-slice or per-call spans
// it caused beneath it.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int // index into tracer.spans, -1 for a root
}

// tracer keeps a traced rep's spans in memory until the rep ends. A nil
// tracer is the timed-rep case: begin returns a no-op closer and nothing is
// recorded, so call sites wrap unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices (the harness is single-threaded around layer calls)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns its closer.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.epoch), Parent: parent})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.epoch)
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns the duration of every closed span with the given name,
// ascending.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	sort.Float64s(out)
	return out
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// traceEvent is one Chrome trace-event record ("X" complete events plus
// "M" thread-name metadata), the format Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as one trace-event document with one track
// (tid) per layer. Every event carries its parent span's index, the
// workload and the rep, so a span can be traced back to what caused it.
func (t *tracer) writeChrome(w io.Writer, workload string, rep int) error {
	tids := map[string]int{}
	var events []traceEvent
	for i, s := range t.spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Layer},
			})
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"span": i, "parent": s.Parent, "workload": workload, "rep": rep,
			},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
