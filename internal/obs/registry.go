// Package obs is the repository's unified observability layer: one metrics
// registry shared by the simulator and the daemon, plus sampled packet path
// tracing (trace.go).
//
// The registry is built for instrumented hot paths. Registration (which
// allocates) happens once at wiring time and hands back fixed-slot value
// handles — Counter, Gauge, Histogram — whose operations are a nil check and
// an atomic op. The zero handle is a no-op: a nil *Registry returns zero
// handles from every constructor, so call sites thread instrumentation
// unconditionally and pay nothing when observability is off. For counters
// that already exist as plain struct fields on the hot path (sim.DataStats,
// olsr.RebuildStats, ...), CounterFunc/GaugeFunc register lazy collectors
// evaluated only at snapshot or scrape time — literally zero steady-state
// cost.
//
// Snapshots are deterministic: metrics sort by (name, labels), values are a
// pure function of the instrumented run. The same snapshot renders as
// Prometheus text exposition (prometheus.go) for the daemon's /metrics and
// as JSON for `qolsr-sim scenario run -metrics-out`.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots and exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name=value pair attached to a metric at registration time.
// Labels are fixed per handle — there is no dynamic label lookup, so the hot
// path never touches a map.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// metric is one registered slot. Exactly one of cell/gauge/hist/counterFn/
// gaugeFn backs it, fixed at registration.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	cell      *atomic.Uint64 // Counter storage
	gauge     *atomic.Int64  // Gauge storage
	hist      *histogram     // Histogram storage
	counterFn func() uint64  // lazy counter collector
	gaugeFn   func() float64 // lazy gauge collector
}

// Registry holds registered metrics. Registration is mutex-guarded (cold);
// handle operations touch only their own atomic cell and never the registry,
// so instrumented hot paths are lock-free and allocation-free.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]struct{} // name+labels uniqueness
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make(map[string]struct{})}
}

// register validates and stores a slot. Panics on duplicate identity or an
// invalid name: both are wiring bugs, not runtime conditions.
func (r *Registry) register(m *metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	key := m.name + labelKey(m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.index[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %s%s", m.name, labelKey(m.labels)))
	}
	r.index[key] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// validName enforces the Prometheus metric-name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// labelKey renders labels in registration order for identity checks.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += l.Key + "=" + l.Value
	}
	return s + "}"
}

// Counter returns a monotone counter handle. On a nil registry the zero
// handle is returned and every operation is a no-op.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	if r == nil {
		return Counter{}
	}
	c := new(atomic.Uint64)
	r.register(&metric{name: name, help: help, labels: labels, kind: KindCounter, cell: c})
	return Counter{c: c}
}

// Gauge returns a gauge handle. Nil registry: zero no-op handle.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	if r == nil {
		return Gauge{}
	}
	g := new(atomic.Int64)
	r.register(&metric{name: name, help: help, labels: labels, kind: KindGauge, gauge: g})
	return Gauge{g: g}
}

// Histogram returns a histogram handle over the given ascending upper
// bounds (an implicit +Inf bucket is appended). Nil registry: zero handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
	}
	h := &histogram{bounds: append([]float64(nil), bounds...), buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.register(&metric{name: name, help: help, labels: labels, kind: KindHistogram, hist: h})
	return Histogram{h: h}
}

// CounterFunc registers a lazy counter collector: fn is evaluated at
// snapshot/scrape time only, so exporting an existing plain counter costs
// nothing on the hot path. fn must be safe to call from the snapshotting
// goroutine. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, labels: labels, kind: KindCounter, counterFn: fn})
}

// GaugeFunc registers a lazy gauge collector; see CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, labels: labels, kind: KindGauge, gaugeFn: fn})
}

// Counter is a monotone counter handle. The zero value no-ops.
type Counter struct{ c *atomic.Uint64 }

// Inc adds one.
func (c Counter) Inc() {
	if c.c != nil {
		c.c.Add(1)
	}
}

// Add adds n.
func (c Counter) Add(n uint64) {
	if c.c != nil {
		c.c.Add(n)
	}
}

// Store overwrites the counter. It exists for mirroring a monotone source
// owned by another goroutine (the daemon's event loop copies RebuildStats
// into registry cells this way); the caller guarantees monotonicity.
func (c Counter) Store(v uint64) {
	if c.c != nil {
		c.c.Store(v)
	}
}

// Value reads the counter (0 on the zero handle).
func (c Counter) Value() uint64 {
	if c.c == nil {
		return 0
	}
	return c.c.Load()
}

// Gauge is an instantaneous int64 value handle. The zero value no-ops.
type Gauge struct{ g *atomic.Int64 }

// Set stores v.
func (g Gauge) Set(v int64) {
	if g.g != nil {
		g.g.Store(v)
	}
}

// Add adds d.
func (g Gauge) Add(d int64) {
	if g.g != nil {
		g.g.Add(d)
	}
}

// Value reads the gauge (0 on the zero handle).
func (g Gauge) Value() int64 {
	if g.g == nil {
		return 0
	}
	return g.g.Load()
}

// histogram is fixed-bucket storage: counts per bound plus an overflow
// bucket, a total count and a float sum (CAS on bits — uncontended in the
// single-threaded simulator, and daemon rates are far below contention).
type histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits
}

// Histogram is a fixed-bucket histogram handle. The zero value no-ops.
type Histogram struct{ h *histogram }

// Observe records v.
func (h Histogram) Observe(v float64) {
	if h.h == nil {
		return
	}
	i := 0
	for i < len(h.h.bounds) && v > h.h.bounds[i] {
		i++
	}
	h.h.buckets[i].Add(1)
	h.h.count.Add(1)
	addFloat(&h.h.sum, v)
}

// addFloat accumulates a float64 into bit-packed atomic storage.
func addFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		new := floatBits(bitsFloat(old) + v)
		if cell.CompareAndSwap(old, new) {
			return
		}
	}
}

// ExpBuckets returns n ascending bounds start, start*factor, ... — the usual
// latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// sortMetrics orders snapshot entries by (name, labels) so output is stable
// across registration order and across merges.
func sortMetrics(ms []SnapshotMetric) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return labelKey(ms[i].Labels) < labelKey(ms[j].Labels)
	})
}
