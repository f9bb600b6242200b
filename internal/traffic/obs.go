package traffic

import "qolsr/internal/obs"

// Instrument registers the engine's packet totals and per-class admission/
// violation accounting on reg as lazy collectors — evaluated at snapshot
// time only, nothing on the emit/completion hot path. Call it after every
// Add (class collectors are registered per known class). A nil registry is
// a no-op.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c := &e.counters
	reg.CounterFunc("qolsr_traffic_packets_total", "flow packets by outcome", func() uint64 { return c.Sent }, obs.Label{Key: "outcome", Value: "sent"})
	reg.CounterFunc("qolsr_traffic_packets_total", "flow packets by outcome", func() uint64 { return c.Completed }, obs.Label{Key: "outcome", Value: "completed"})
	reg.CounterFunc("qolsr_traffic_packets_total", "flow packets by outcome", func() uint64 { return c.Delivered }, obs.Label{Key: "outcome", Value: "delivered"})
	reg.CounterFunc("qolsr_traffic_bytes_delivered_total", "payload bytes delivered", func() uint64 { return c.BytesDelivered })

	for _, name := range e.classes {
		name := name
		a := e.classAcc[name]
		cls := obs.Label{Key: "class", Value: name}
		reg.CounterFunc("qolsr_traffic_flows_total", "admission decisions by class", func() uint64 { return a.admitted }, cls, obs.Label{Key: "decision", Value: "admitted"})
		reg.CounterFunc("qolsr_traffic_flows_total", "admission decisions by class", func() uint64 { return a.rejected }, cls, obs.Label{Key: "decision", Value: "rejected"})
		reg.CounterFunc("qolsr_traffic_class_packets_total", "class packets by outcome", func() uint64 { return a.sent }, cls, obs.Label{Key: "outcome", Value: "sent"})
		reg.CounterFunc("qolsr_traffic_class_packets_total", "class packets by outcome", func() uint64 { return a.delivered }, cls, obs.Label{Key: "outcome", Value: "delivered"})
		reg.CounterFunc("qolsr_traffic_class_violations_total", "admitted flows measured in violation of their QoS requirements", func() uint64 {
			return e.classViolations(name)
		}, cls)
	}
}

// classViolations measures the class's admitted flows against their
// requirements — the same test Report runs, evaluated lazily so violations
// appear in metrics snapshots without an explicit report pass. Like Report
// it flushes the fold first: the test reads the flows' distributions.
func (e *Engine) classViolations(class string) uint64 {
	e.flush()
	var n uint64
	for _, fs := range e.flows {
		if fs.Class == class && fs.decided && fs.decision.Admitted && fs.violated() {
			n++
		}
	}
	return n
}
