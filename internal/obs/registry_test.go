package obs

import (
	"strings"
	"testing"
)

// A nil registry must hand back inert zero handles: wiring is unconditional
// in the instrumented packages, so every operation has to no-op cleanly.
func TestNilRegistryZeroHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x_depth", "")
	h := r.Histogram("x_ms", "", []float64{1, 2})
	r.CounterFunc("x_fn_total", "", func() uint64 { return 1 })
	r.GaugeFunc("x_fn", "", func() float64 { return 1 })

	c.Inc()
	c.Add(7)
	c.Store(3)
	g.Set(5)
	g.Add(-2)
	h.Observe(1.5)

	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("zero handles leaked state: counter=%d gauge=%d", c.Value(), g.Value())
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", len(s.Metrics))
	}
}

// The disabled path must be allocation-free: this is the property the
// tentpole's "0 extra allocs in BenchmarkTrafficEngine" rests on.
func TestDisabledHandlesZeroAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled handles allocated %.1f/op", allocs)
	}
}

// Enabled handles must also stay allocation-free on the hot path.
func TestEnabledHandlesZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ms", "", ExpBuckets(1, 2, 8))
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("enabled handles allocated %.1f/op", allocs)
	}
}

func TestSnapshotValuesAndOrder(t *testing.T) {
	r := New()
	c := r.Counter("zz_total", "last registered, first name sorts first")
	g := r.Gauge("aa_depth", "")
	r.CounterFunc("mm_total", "", func() uint64 { return 42 })
	c.Add(5)
	g.Set(-3)

	s := r.Snapshot()
	if len(s.Metrics) != 3 {
		t.Fatalf("got %d metrics", len(s.Metrics))
	}
	wantOrder := []string{"aa_depth", "mm_total", "zz_total"}
	wantValue := []float64{-3, 42, 5}
	for i, m := range s.Metrics {
		if m.Name != wantOrder[i] || m.Value != wantValue[i] {
			t.Errorf("metric %d = %s:%v, want %s:%v", i, m.Name, m.Value, wantOrder[i], wantValue[i])
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ms", "", []float64{1, 10})
	for _, v := range []float64{0.5, 0.9, 5, 100} {
		h.Observe(v)
	}
	m := r.Snapshot().Metrics[0]
	if m.Count != 4 || m.Sum != 106.4 {
		t.Fatalf("count=%d sum=%v", m.Count, m.Sum)
	}
	want := []struct {
		le    string
		count uint64
	}{{"1", 2}, {"10", 3}, {"+Inf", 4}}
	for i, b := range m.Buckets {
		if b.Le != want[i].le || b.Count != want[i].count {
			t.Errorf("bucket %d = {%s %d}, want %+v", i, b.Le, b.Count, want[i])
		}
	}
}

func TestMerge(t *testing.T) {
	build := func(c uint64, g int64, obs float64) Snapshot {
		r := New()
		r.Counter("c_total", "").Add(c)
		r.Gauge("g_peak", "").Set(g)
		r.Histogram("h_ms", "", []float64{1}).Observe(obs)
		return r.Snapshot()
	}
	m := Merge(build(3, 10, 0.5), build(4, 7, 2))
	byName := map[string]SnapshotMetric{}
	for _, sm := range m.Metrics {
		byName[sm.Name] = sm
	}
	if v := byName["c_total"].Value; v != 7 {
		t.Errorf("merged counter = %v, want 7", v)
	}
	if v := byName["g_peak"].Value; v != 10 {
		t.Errorf("merged gauge = %v, want max 10", v)
	}
	h := byName["h_ms"]
	if h.Count != 2 || h.Sum != 2.5 || h.Buckets[0].Count != 1 || h.Buckets[1].Count != 2 {
		t.Errorf("merged histogram = %+v", h)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("frames_total", "frames", Label{"dir", "in"}).Add(12)
	r.Counter("frames_total", "frames", Label{"dir", "out"}).Add(9)
	r.Histogram("rtt_ms", "round trips", []float64{1}).Observe(0.25)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter\n",
		`frames_total{dir="in"} 12` + "\n",
		`frames_total{dir="out"} 9` + "\n",
		"# TYPE rtt_ms histogram\n",
		`rtt_ms_bucket{le="1"} 1` + "\n",
		`rtt_ms_bucket{le="+Inf"} 1` + "\n",
		"rtt_ms_sum 0.25\n",
		"rtt_ms_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE frames_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want once", n)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := New()
	r.Counter("dup_total", "")
	r.Counter("dup_total", "")
}
