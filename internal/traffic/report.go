package traffic

import (
	"math"
	"time"
)

// Verdict is a flow's end-of-run QoS classification.
type Verdict string

const (
	// VerdictSatisfied: admitted and every requirement measured as met.
	VerdictSatisfied Verdict = "satisfied"
	// VerdictViolated: admitted, but the measured traffic broke a
	// requirement — the admission gate's false accept, the honest cost
	// of optimistic neighbor selection.
	VerdictViolated Verdict = "violated"
	// VerdictCorrectReject: rejected while the oracle also found no
	// satisfying path — the gate protected the network.
	VerdictCorrectReject Verdict = "correct-reject"
	// VerdictFalseReject: rejected although a satisfying path existed —
	// the selection starved the protocol of the links it needed.
	VerdictFalseReject Verdict = "false-reject"
)

// BandwidthDeliveryFloor is the delivery ratio below which a flow with a
// bandwidth floor counts as violated: a path that drops more than this
// fraction of the offered packets is not providing the admitted bandwidth,
// whatever its nominal capacity.
const BandwidthDeliveryFloor = 0.9

// FlowReport is one flow's end-of-run record.
type FlowReport struct {
	ID        int
	Class     string
	Src, Dst  int32
	Rejected  bool
	Reason    string
	Verdict   Verdict
	Decision  Decision
	Sent      uint64
	Delivered uint64
	// Delivery is Delivered/Sent over the flow's whole life. Packets
	// still queued at the run horizon count as sent but undelivered —
	// negligible for bounded queues (the harness drains them), and part
	// of the violation signal under sustained overload.
	Delivery   float64
	Throughput float64 // delivered bytes per active virtual second
	DelayMean  time.Duration
	DelayP50   time.Duration
	DelayP95   time.Duration
	DelayP99   time.Duration
	Jitter     time.Duration // mean inter-packet delay variation
}

// ClassReport aggregates one flow class (or the whole mix, Class "all").
type ClassReport struct {
	Class string
	// Verdict counts.
	Flows, Admitted, Satisfied, Violated, CorrectReject, FalseReject int
	// Packet totals over the class's admitted flows.
	Sent, Delivered uint64
	Delivery        float64
	// Throughput is the class's aggregate delivered rate (sum over
	// flows), in bytes per virtual second.
	Throughput float64
	// Delay mean and tail quantiles over every delivered packet of the
	// class.
	DelayMean, DelayP95, DelayP99 time.Duration
	// Jitter is the mean inter-packet delay variation over the class.
	Jitter time.Duration
}

// ViolationRatio is violated / admitted — the fraction of admitted flows
// whose QoS the network then failed to honor (0 when nothing was admitted).
func (c ClassReport) ViolationRatio() float64 {
	if c.Admitted == 0 {
		return 0
	}
	return float64(c.Violated) / float64(c.Admitted)
}

// Report is the engine's end-of-run accounting.
type Report struct {
	// Flows holds one record per flow, in flow-ID order.
	Flows []FlowReport
	// Classes aggregates per flow class, in first-seen order.
	Classes []ClassReport
	// Total aggregates the whole mix (Class "all").
	Total ClassReport
}

// violated measures an admitted flow's traffic against its requirements.
// It reads the flow's distribution: flush the fold first.
func (fs *flowState) violated() bool {
	req := fs.Req
	if req.zero() || fs.sent == 0 {
		return false
	}
	if fs.delivered == 0 {
		return true
	}
	ratio := float64(fs.delivered) / float64(fs.sent)
	if req.MinBandwidth > 0 && ratio < BandwidthDeliveryFloor {
		return true
	}
	if req.MaxDelay > 0 && secsDur(fs.d.p95.Value()) > req.MaxDelay {
		return true
	}
	if req.MaxJitter > 0 && secsDur(fs.d.jitter.Mean()) > req.MaxJitter {
		return true
	}
	return false
}

// secsDur converts a seconds value to a Duration, mapping NaN to 0.
func secsDur(s float64) time.Duration {
	if math.IsNaN(s) {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// Report builds the end-of-run accounting. Call it after the network has
// drained past the engine's stop time. It waits for the batch in flight,
// folds the deliveries still buffered and stops the fold worker, so every
// statistic covers every delivery so far and no goroutine of the engine
// outlives it. Deliveries after a Report fold as before; a later Report
// covers them too.
func (e *Engine) Report() *Report {
	e.flush()
	e.stopFold()
	rep := &Report{}
	classOf := make(map[string]*ClassReport, len(e.classes))
	for _, name := range e.classes {
		rep.Classes = append(rep.Classes, ClassReport{Class: name})
	}
	for i := range rep.Classes {
		classOf[rep.Classes[i].Class] = &rep.Classes[i]
	}
	total := &rep.Total
	total.Class = "all"

	for _, fs := range e.flows {
		fr := FlowReport{
			ID:        fs.ID,
			Class:     fs.Class,
			Src:       fs.Src,
			Dst:       fs.Dst,
			Decision:  fs.decision,
			Sent:      fs.sent,
			Delivered: fs.delivered,
		}
		if fs.sent > 0 {
			fr.Delivery = float64(fs.delivered) / float64(fs.sent)
		}
		if span := (e.stop - fs.Start).Seconds(); span > 0 {
			fr.Throughput = float64(fs.bytesDelivered) / span
		}
		fr.DelayMean = secsDur(fs.d.delay.Mean())
		fr.DelayP50 = secsDur(fs.d.p50.Value())
		fr.DelayP95 = secsDur(fs.d.p95.Value())
		fr.DelayP99 = secsDur(fs.d.p99.Value())
		fr.Jitter = secsDur(fs.d.jitter.Mean())

		cls := classOf[fs.Class]
		cls.Flows++
		total.Flows++
		switch {
		case !fs.decided || fs.decision.Admitted:
			// An undecided flow (start time past the run end) counts as
			// admitted-and-satisfied-by-vacuity only if it was actually
			// decided; otherwise it is skipped from verdicts below.
			if fs.decided {
				cls.Admitted++
				total.Admitted++
				if fs.violated() {
					fr.Verdict = VerdictViolated
					cls.Violated++
					total.Violated++
				} else {
					fr.Verdict = VerdictSatisfied
					cls.Satisfied++
					total.Satisfied++
				}
			}
		case fs.decision.Feasible:
			fr.Rejected = true
			fr.Reason = fs.decision.Reason
			fr.Verdict = VerdictFalseReject
			cls.FalseReject++
			total.FalseReject++
		default:
			fr.Rejected = true
			fr.Reason = fs.decision.Reason
			fr.Verdict = VerdictCorrectReject
			cls.CorrectReject++
			total.CorrectReject++
		}
		rep.Flows = append(rep.Flows, fr)

		cls.Sent += fs.sent
		cls.Delivered += fs.delivered
		cls.Throughput += fr.Throughput
		total.Sent += fs.sent
		total.Delivered += fs.delivered
		total.Throughput += fr.Throughput
	}

	for i := range rep.Classes {
		cls := &rep.Classes[i]
		fillClassStats(cls, e.classAcc[cls.Class].d)
	}
	fillClassStats(total, e.total)
	return rep
}

// fillClassStats copies a population's distribution into a class report.
func fillClassStats(cls *ClassReport, d *dist) {
	if cls.Sent > 0 {
		cls.Delivery = float64(cls.Delivered) / float64(cls.Sent)
	}
	cls.DelayMean = secsDur(d.delay.Mean())
	cls.DelayP95 = secsDur(d.p95.Value())
	cls.DelayP99 = secsDur(d.p99.Value())
	cls.Jitter = secsDur(d.jitter.Mean())
}
