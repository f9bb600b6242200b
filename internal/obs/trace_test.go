package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"qolsr/internal/rng"
)

// The sampler's 1-in-N choice must be a pure function of (seed, flow, seq)
// — exactly rng.Mix(seed, flow, seq) % n — and therefore independent of the
// order packets are presented in. This is the property that keeps traces
// identical across worker counts.
func TestSamplerKeyedByMixNotArrivalOrder(t *testing.T) {
	const seed, every = int64(17), 8
	s := NewSampler(seed, every)

	type key struct {
		flow uint32
		seq  uint64
	}
	var keys []key
	for flow := uint32(0); flow < 16; flow++ {
		for seq := uint64(0); seq < 64; seq++ {
			keys = append(keys, key{flow, seq})
		}
	}

	// Forward order: every decision matches the Mix formula.
	forward := map[key]bool{}
	sampled := 0
	for _, k := range keys {
		got := s.Sample(k.flow, k.seq)
		want := rng.Mix(uint64(seed), uint64(k.flow), k.seq)%every == 0
		if got != want {
			t.Fatalf("Sample(%d,%d) = %v, Mix says %v", k.flow, k.seq, got, want)
		}
		forward[k] = got
		if got {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(keys) {
		t.Fatalf("degenerate sampling: %d of %d", sampled, len(keys))
	}

	// Reversed and interleaved "arrival orders" change nothing.
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if s.Sample(k.flow, k.seq) != forward[k] {
			t.Fatalf("reversed order flipped decision for %+v", k)
		}
	}
	perm := rng.NewStream(99)
	for range keys {
		k := keys[perm.Int63n(int64(len(keys)))]
		if s.Sample(k.flow, k.seq) != forward[k] {
			t.Fatalf("shuffled order flipped decision for %+v", k)
		}
	}
}

func TestSamplerDisabled(t *testing.T) {
	s := NewSampler(1, 0)
	if s.Sample(0, 0) {
		t.Fatal("disabled sampler sampled a packet")
	}
	all := NewSampler(1, 1)
	if !all.Sample(3, 9) {
		t.Fatal("1-in-1 sampler skipped a packet")
	}
}

// A nil tracer must be fully inert through the whole call chain the data
// plane uses.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	pt := tr.Start(1, 2)
	if pt != nil {
		t.Fatal("nil tracer started a trace")
	}
	pt.Hop(3, time.Second, 0)
	pt.Finish("delivered", 2*time.Second)
	if tr.Events() != nil {
		t.Fatal("nil tracer accumulated events")
	}
}

func TestTracerSpansAndOutcome(t *testing.T) {
	tr := NewTracer(1, 1, 7) // sample everything, pid 7
	pt := tr.Start(5, 11)
	if pt == nil {
		t.Fatal("1-in-1 tracer did not start a trace")
	}
	pt.Hop(2, 10*time.Millisecond, 0)
	pt.Hop(4, 14*time.Millisecond, 1*time.Millisecond)
	pt.Finish("medium-loss", 15*time.Millisecond)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 2 spans + 1 instant", len(ev))
	}
	first := ev[0]
	if first.Phase != "X" || first.Name != "n2" || first.Ts != 10000 || first.Dur != 4000 || first.Pid != 7 || first.Tid != 5 {
		t.Errorf("span 0 = %+v", first)
	}
	if ev[1].Args.WaitUs != 1000 {
		t.Errorf("hop wait = %v µs, want 1000", ev[1].Args.WaitUs)
	}
	term := ev[2]
	if term.Phase != "i" || term.Name != "medium-loss" || term.Args.Drop != "medium-loss" || term.Args.Node != 4 {
		t.Errorf("terminal event = %+v", term)
	}
}

// WriteTrace output must parse as a Chrome trace-event document: a
// traceEvents array whose entries carry the mandatory name/ph/ts/pid/tid
// fields with the right JSON types.
func TestWriteTraceSchema(t *testing.T) {
	tr := NewTracer(3, 1, 0)
	pt := tr.Start(1, 1)
	pt.Hop(0, 0, 0)
	pt.Finish("delivered", time.Millisecond)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := validateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Empty traces still produce a loadable document.
	buf.Reset()
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := validateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// The validator must actually reject malformed documents.
	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[{"ph":"X","ts":0,"pid":0,"tid":0,"dur":1}]}`,
		`{"traceEvents":[{"name":"n0","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		`{"traceEvents":[{"name":"n0","ph":"X","ts":-1,"pid":0,"tid":0,"dur":1}]}`,
	} {
		if err := validateTrace([]byte(bad)); err == nil {
			t.Errorf("validator accepted %s", bad)
		}
	}
}

// validateTrace checks that data is a well-formed Chrome trace-event JSON
// document: a traceEvents array whose entries carry the mandatory
// name/ph/ts/pid/tid fields with the right JSON types, durations on
// complete events, and no negative timestamps.
func validateTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace JSON does not parse: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("trace JSON missing traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		var name, ph string
		var ts float64
		var pid, tid int64
		for field, into := range map[string]any{
			"name": &name, "ph": &ph, "ts": &ts, "pid": &pid, "tid": &tid,
		} {
			raw, ok := ev[field]
			if !ok {
				return fmt.Errorf("event %d missing %q", i, field)
			}
			if err := json.Unmarshal(raw, into); err != nil {
				return fmt.Errorf("event %d field %q: %w", i, field, err)
			}
		}
		if name == "" {
			return fmt.Errorf("event %d has empty name", i)
		}
		if ph != "X" && ph != "i" {
			return fmt.Errorf("event %d has phase %q, want X or i", i, ph)
		}
		if ts < 0 {
			return fmt.Errorf("event %d has negative ts %v", i, ts)
		}
		if _, ok := ev["dur"]; ph == "X" && !ok {
			return fmt.Errorf("complete event %d missing dur", i)
		}
	}
	return nil
}
