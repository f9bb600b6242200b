package traffic

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"qolsr/internal/obs"
	"qolsr/internal/stats"
)

// foldFixture drives an engine's PacketDone directly — no medium, no
// routing — with a seeded sequence of deliveries and drops over seven
// admitted flows in three classes, and feeds the same sequence to ref, a
// serial fold on plain stats accumulators.
type foldFixture struct {
	eng *Engine
	ref *refAccounting
	rng *rand.Rand
	// slow is added to every delay drive draws: a congested stretch.
	slow time.Duration
}

func newFoldFixture(t *testing.T) *foldFixture {
	t.Helper()
	nw := gateNetwork(t)
	eng := NewEngine(nw, 7)
	classes := []string{ClassCBR, ClassPoisson, ClassVideo}
	reqs := []Requirements{
		{},
		{MaxDelay: 50 * time.Millisecond},
		{MaxJitter: 12 * time.Millisecond},
		{MinBandwidth: 1},
		{MaxDelay: 70 * time.Millisecond, MaxJitter: 20 * time.Millisecond},
		{MaxDelay: 20 * time.Millisecond},
		{MaxJitter: 25 * time.Millisecond},
	}
	for i, req := range reqs {
		err := eng.Add(Flow{
			ID: i, Class: classes[i%len(classes)], Src: int32(i % 4), Dst: int32((i + 1) % 4),
			RateBps: 8192, PacketBytes: 512, Start: nw.Engine.Now(), Req: req,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(nw.Engine.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The admission events Start booked never run: admit every flow here.
	for _, fs := range eng.flows {
		fs.decided = true
		fs.decision = Decision{Admitted: true, Feasible: true}
	}
	return &foldFixture{eng: eng, ref: newRefAccounting(eng), rng: rand.New(rand.NewSource(38))}
}

// drive completes packets until n more have been delivered, about one in
// five packets dropped between them. Flow k's delays sit k·4 ms above a
// 0–40 ms spread (plus fx.slow), so the flows' verdicts differ and change
// as the run goes.
func (fx *foldFixture) drive(n int) {
	for n > 0 {
		k := fx.rng.Intn(len(fx.eng.flows))
		size := uint64(200 + fx.rng.Intn(800))
		fx.eng.flows[k].sent++
		fx.ref.flows[k].sent++
		cookie := uint64(k)<<32 | size
		if fx.rng.Intn(5) == 0 {
			fx.eng.PacketDone(cookie, false, 0, 0)
			continue
		}
		hops := 1 + fx.rng.Intn(6)
		latency := fx.slow + time.Duration(k)*4*time.Millisecond + time.Duration(fx.rng.Int63n(int64(40*time.Millisecond)))
		fx.eng.PacketDone(cookie, true, hops, latency)
		fx.ref.deliver(k, size, latency)
		n--
	}
}

// check compares every field of a Report against the serial reference.
func (fx *foldFixture) check(t *testing.T, when string) {
	t.Helper()
	got, want := fx.eng.Report(), fx.ref.report()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want.Flows {
		if !reflect.DeepEqual(got.Flows[i], want.Flows[i]) {
			t.Errorf("%s: flow %d\n got %+v\nwant %+v", when, i, got.Flows[i], want.Flows[i])
		}
	}
	for i := range want.Classes {
		if !reflect.DeepEqual(got.Classes[i], want.Classes[i]) {
			t.Errorf("%s: class %s\n got %+v\nwant %+v", when, want.Classes[i].Class, got.Classes[i], want.Classes[i])
		}
	}
	if !reflect.DeepEqual(got.Total, want.Total) {
		t.Errorf("%s: total\n got %+v\nwant %+v", when, got.Total, want.Total)
	}
}

// refDist is one population's distribution on plain stats types.
type refDist struct {
	delay, jitter stats.Accumulator
	p50, p95, p99 *stats.Quantile
}

func newRefDist() *refDist {
	return &refDist{p50: stats.NewQuantile(0.50), p95: stats.NewQuantile(0.95), p99: stats.NewQuantile(0.99)}
}

type refFlow struct {
	Flow
	sent, delivered, bytes uint64
	last                   time.Duration
	hasLast                bool
	d                      *refDist
}

// refAccounting is the serial fold: every delivery goes straight into the
// flow's, its class's and the total's accumulators.
type refAccounting struct {
	flows   []*refFlow
	classes []string
	byClass map[string]*refDist
	total   *refDist
	stop    time.Duration
}

func newRefAccounting(e *Engine) *refAccounting {
	r := &refAccounting{byClass: map[string]*refDist{}, total: newRefDist(), stop: e.stop}
	for _, fs := range e.flows {
		r.flows = append(r.flows, &refFlow{Flow: fs.Flow, d: newRefDist()})
		if r.byClass[fs.Class] == nil {
			r.classes = append(r.classes, fs.Class)
			r.byClass[fs.Class] = newRefDist()
		}
	}
	return r
}

func (r *refAccounting) deliver(k int, size uint64, latency time.Duration) {
	f := r.flows[k]
	f.delivered++
	f.bytes += size
	pops := []*refDist{f.d, r.byClass[f.Class], r.total}
	for _, d := range pops {
		d.delay.Add(latency.Seconds())
		d.p50.Add(latency.Seconds())
		d.p95.Add(latency.Seconds())
		d.p99.Add(latency.Seconds())
	}
	if f.hasLast {
		diff := latency - f.last
		if diff < 0 {
			diff = -diff
		}
		for _, d := range pops {
			d.jitter.Add(diff.Seconds())
		}
	}
	f.last, f.hasLast = latency, true
}

// violated is the verdict rule written out on the reference's numbers.
func (f *refFlow) violated() bool {
	switch req := f.Req; {
	case req.zero() || f.sent == 0:
		return false
	case f.delivered == 0:
		return true
	case req.MinBandwidth > 0 && float64(f.delivered)/float64(f.sent) < BandwidthDeliveryFloor:
		return true
	case req.MaxDelay > 0 && secsDur(f.d.p95.Value()) > req.MaxDelay:
		return true
	default:
		return req.MaxJitter > 0 && secsDur(f.d.jitter.Mean()) > req.MaxJitter
	}
}

func (r *refAccounting) violations(class string) int {
	n := 0
	for _, f := range r.flows {
		if f.Class == class && f.violated() {
			n++
		}
	}
	return n
}

// fillRef writes a distribution's fields into a class report.
func fillRef(c *ClassReport, d *refDist) {
	if c.Sent > 0 {
		c.Delivery = float64(c.Delivered) / float64(c.Sent)
	}
	c.DelayMean = secsDur(d.delay.Mean())
	c.DelayP95 = secsDur(d.p95.Value())
	c.DelayP99 = secsDur(d.p99.Value())
	c.Jitter = secsDur(d.jitter.Mean())
}

// report is the Report every flow being admitted implies.
func (r *refAccounting) report() *Report {
	rep := &Report{Total: ClassReport{Class: "all"}}
	for _, name := range r.classes {
		rep.Classes = append(rep.Classes, ClassReport{Class: name})
	}
	for _, f := range r.flows {
		fr := FlowReport{
			ID: f.ID, Class: f.Class, Src: f.Src, Dst: f.Dst,
			Decision: Decision{Admitted: true, Feasible: true},
			Verdict:  VerdictSatisfied,
			Sent:     f.sent, Delivered: f.delivered,
		}
		if f.sent > 0 {
			fr.Delivery = float64(f.delivered) / float64(f.sent)
		}
		fr.Throughput = float64(f.bytes) / (r.stop - f.Start).Seconds()
		fr.DelayMean = secsDur(f.d.delay.Mean())
		fr.DelayP50 = secsDur(f.d.p50.Value())
		fr.DelayP95 = secsDur(f.d.p95.Value())
		fr.DelayP99 = secsDur(f.d.p99.Value())
		fr.Jitter = secsDur(f.d.jitter.Mean())
		violated := f.violated()
		if violated {
			fr.Verdict = VerdictViolated
		}
		rep.Flows = append(rep.Flows, fr)
		cls := &rep.Classes[slices.Index(r.classes, f.Class)]
		for _, c := range []*ClassReport{cls, &rep.Total} {
			c.Flows++
			c.Admitted++
			if violated {
				c.Violated++
			} else {
				c.Satisfied++
			}
			c.Sent += f.sent
			c.Delivered += f.delivered
			c.Throughput += fr.Throughput
		}
	}
	for i := range rep.Classes {
		fillRef(&rep.Classes[i], r.byClass[rep.Classes[i].Class])
	}
	fillRef(&rep.Total, r.total)
	return rep
}

// TestReportMatchesSerialFold holds the batched, off-loop fold to the
// serial one: over three full batches and a remainder, a Report mid-stream
// and more deliveries after it, every Report field equals, bit for bit, what
// plain accumulators fed the same deliveries in the same order produce — at
// GOMAXPROCS 1 (batches fold on the event loop) and 4 (on the worker).
func TestReportMatchesSerialFold(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fx := newFoldFixture(t)
			fx.drive(3*foldBatch + 300)
			if running := fx.eng.w != nil; running != (procs > 1) {
				t.Errorf("fold worker running = %v at GOMAXPROCS %d", running, procs)
			}
			fx.check(t, "mid-stream")
			fx.drive(2*foldBatch + 77)
			fx.check(t, "final")
			mixed := 0
			for _, c := range fx.ref.report().Classes {
				mixed += min(c.Violated, c.Satisfied)
			}
			if mixed == 0 {
				t.Error("no class mixes violated and satisfied flows; the fixture tests too little")
			}
		})
	}
}

// TestClassViolationsFlushMidRun snapshots an instrumented registry while a
// batch is on the worker and again with deliveries still buffered: the lazy
// violation collector must flush the fold first, so its counts equal the
// serial fold's at that instant (and under -race it must not read a flow's
// distribution while the worker writes it).
func TestClassViolationsFlushMidRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fx := newFoldFixture(t)
	reg := obs.New()
	fx.eng.Instrument(reg)
	check := func(when string) {
		t.Helper()
		for _, m := range reg.Snapshot().Metrics {
			if m.Name != "qolsr_traffic_class_violations_total" {
				continue
			}
			class := m.Labels[0].Value
			if want := fx.ref.violations(class); int(m.Value) != want {
				t.Errorf("%s: class %s violations = %v, serial fold says %d", when, class, m.Value, want)
			}
		}
	}
	// Two quiet batches, then a congested one that moves the verdicts: a
	// collector that read the distributions without flushing would count
	// the quiet run's violations.
	fx.drive(2 * foldBatch)
	fx.slow = 25 * time.Millisecond
	fx.drive(foldBatch)
	if !fx.eng.inFlight {
		t.Fatal("no batch in flight after a full batch")
	}
	check("batch in flight")
	fx.slow = 0
	fx.drive(500)
	check("remainder buffered")
}

// TestFoldWorkerLifetime: Report ends the engine's fold worker, and an
// engine dropped mid-run without Report does not pin its worker — the
// cleanup on the collected engine ends it.
func TestFoldWorkerLifetime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// exited reports whether w's goroutine returns (closes done) within
	// five seconds, collecting garbage meanwhile.
	exited := func(w *folder) bool {
		timeout := time.After(5 * time.Second)
		for {
			select {
			case _, open := <-w.done:
				if !open {
					return true
				}
			case <-timeout:
				return false
			case <-time.After(10 * time.Millisecond):
				runtime.GC()
			}
		}
	}
	worker := func(fx *foldFixture) *folder {
		fx.drive(2*foldBatch + 1)
		if fx.eng.w == nil {
			t.Fatal("no fold worker at GOMAXPROCS 4")
		}
		return fx.eng.w
	}

	fx := newFoldFixture(t)
	w := worker(fx)
	fx.eng.Report()
	if fx.eng.w != nil || !exited(w) {
		t.Error("fold worker outlived Report")
	}

	w = worker(newFoldFixture(t))
	if !exited(w) {
		t.Error("an unreported engine's fold worker outlived the engine")
	}
}
