package obs

import "math"

// floatBits / bitsFloat convert between float64 values and the uint64 bit
// pattern the histogram sum cell stores.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// SnapshotMetric is one metric's state at snapshot time.
type SnapshotMetric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	// Value carries the counter or gauge value. Counter magnitudes in this
	// repo stay far below 2^53, so float64 is exact.
	Value float64 `json:"value"`
	// Histogram-only fields.
	Count   uint64       `json:"count,omitempty"`
	Sum     float64      `json:"sum,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

// jsonBucket encodes Le as a string so the +Inf overflow bound survives
// JSON round trips.
type jsonBucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot is a point-in-time reading of a registry, sorted by
// (name, labels).
type Snapshot struct {
	Metrics []SnapshotMetric `json:"metrics"`
}

// Snapshot reads every metric — atomic cells directly, collector funcs by
// evaluation — and returns a deterministic, sorted snapshot. Nil registries
// snapshot to the zero value.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	out := make([]SnapshotMetric, 0, len(metrics))
	for _, m := range metrics {
		sm := SnapshotMetric{Name: m.name, Kind: m.kind.String(), Labels: m.labels}
		switch {
		case m.counterFn != nil:
			sm.Value = float64(m.counterFn())
		case m.gaugeFn != nil:
			sm.Value = m.gaugeFn()
		case m.cell != nil:
			sm.Value = float64(m.cell.Load())
		case m.gauge != nil:
			sm.Value = float64(m.gauge.Load())
		case m.hist != nil:
			sm.Count = m.hist.count.Load()
			sm.Sum = bitsFloat(m.hist.sum.Load())
			sm.Buckets = make([]jsonBucket, 0, len(m.hist.buckets))
			cum := uint64(0)
			for i := range m.hist.buckets {
				cum += m.hist.buckets[i].Load()
				sm.Buckets = append(sm.Buckets, jsonBucket{Le: leString(m.hist, i), Count: cum})
			}
		}
		out = append(out, sm)
	}
	sortMetrics(out)
	return Snapshot{Metrics: out}
}

// leString renders bucket i's upper bound ("+Inf" for the overflow bucket).
func leString(h *histogram, i int) string {
	if i == len(h.bounds) {
		return "+Inf"
	}
	return formatFloat(h.bounds[i])
}

// Merge folds other into s by metric identity: counters and histogram
// buckets sum, gauges take the maximum (the high-water interpretation —
// every gauge this repo registers is a depth or occupancy peak). Metrics
// present in only one snapshot pass through. The result is sorted.
func Merge(snaps ...Snapshot) Snapshot {
	byKey := map[string]*SnapshotMetric{}
	var order []string
	for _, s := range snaps {
		for _, m := range s.Metrics {
			key := m.Name + labelKey(m.Labels)
			prev, ok := byKey[key]
			if !ok {
				cp := m
				cp.Buckets = append([]jsonBucket(nil), m.Buckets...)
				byKey[key] = &cp
				order = append(order, key)
				continue
			}
			switch m.Kind {
			case "gauge":
				if m.Value > prev.Value {
					prev.Value = m.Value
				}
			case "histogram":
				prev.Count += m.Count
				prev.Sum += m.Sum
				for i := range prev.Buckets {
					if i < len(m.Buckets) {
						prev.Buckets[i].Count += m.Buckets[i].Count
					}
				}
			default:
				prev.Value += m.Value
			}
		}
	}
	out := make([]SnapshotMetric, 0, len(order))
	for _, key := range order {
		out = append(out, *byKey[key])
	}
	sortMetrics(out)
	return Snapshot{Metrics: out}
}
