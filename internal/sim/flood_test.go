package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"qolsr/internal/des"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

// perDeliveryIdeal is the ideal MAC behind a type the network does not
// recognise: the same plans and the same counters, but broadcastFrame cannot
// see the constant latency, so it plans through PlanFrame and tests the
// flood's visited set where each frame lands.
type perDeliveryIdeal struct{ *IdealMedium }

// floodPair runs one seeded field twice in lockstep: a on the ideal medium
// (receivers claimed when a frame is sent), b on perDeliveryIdeal.
type floodPair struct {
	t    *testing.T
	a, b *Network
}

func newFloodPair(t *testing.T, g *graph.Graph, cfg olsr.Config) *floodPair {
	t.Helper()
	a, err := NewNetwork(g, cfg, NetworkOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(g, cfg, NetworkOptions{Seed: 7, Medium: perDeliveryIdeal{NewIdealMedium(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if a.ideal == nil || b.ideal != nil {
		t.Fatal("the pair does not take the two paths")
	}
	a.Start()
	b.Start()
	return &floodPair{t: t, a: a, b: b}
}

// perturb books fn on both networks every period from start to end, each
// time only once frames are in flight: a firing event has left the queue,
// so anything pending beyond the 2N emitters is a frame on the air. It
// returns how many perturbations ran, per network.
func (p *floodPair) perturb(start, end, period time.Duration, fn func(nw *Network, k int)) (hits *[2]int) {
	hits = new([2]int)
	for side, nw := range []*Network{p.a, p.b} {
		var k int
		var step des.Func
		step = func() {
			if nw.Engine.Now() > end {
				return
			}
			if nw.Engine.Scheduled()-nw.Engine.Executed <= uint64(2*len(nw.Nodes)) {
				nw.Engine.After(100*time.Microsecond, step)
				return
			}
			fn(nw, k)
			k++
			hits[side] = k
			nw.Engine.After(period, step)
		}
		nw.Engine.At(start, step)
	}
	return hits
}

// check runs both networks to t and compares everything a harness can read.
// withMedium also compares the medium's counters and the fixed-lane count,
// which data packets move apart: the data plane bypasses the ideal medium's
// PlanFrame and lane only when it sees the ideal medium.
func (p *floodPair) check(t time.Duration, withMedium bool) bool {
	p.t.Helper()
	a, b := p.a, p.b
	a.Run(t)
	b.Run(t)
	fail := func(what string, x, y any) bool {
		p.t.Errorf("at %v: %s differs: claimed at send %+v, per delivery %+v", t, what, x, y)
		return false
	}
	if a.Stats != b.Stats {
		return fail("Stats", a.Stats, b.Stats)
	}
	if a.Data != b.Data {
		return fail("Data", a.Data, b.Data)
	}
	ea, eb := a.Engine, b.Engine
	if ea.Executed != eb.Executed || ea.Scheduled() != eb.Scheduled() {
		return fail("events (executed, scheduled)", [2]uint64{ea.Executed, ea.Scheduled()}, [2]uint64{eb.Executed, eb.Scheduled()})
	}
	if withMedium {
		if ms, mb := a.ideal.Stats(), b.medium.(perDeliveryIdeal).Stats(); ms != mb {
			return fail("medium stats", ms, mb)
		}
		if ea.FifoScheduled != eb.FifoScheduled {
			return fail("FifoScheduled", ea.FifoScheduled, eb.FifoScheduled)
		}
	}
	for i := range a.Nodes {
		ra, err := a.Nodes[i].Routes(t)
		if err != nil {
			p.t.Fatal(err)
		}
		rb, err := b.Nodes[i].Routes(t)
		if err != nil {
			p.t.Fatal(err)
		}
		if ra.Len() != rb.Len() {
			return fail(fmt.Sprintf("route count of node %d", i), ra.Len(), rb.Len())
		}
		if xa, xb := maps.Collect(ra.All()), maps.Collect(rb.All()); !maps.Equal(xa, xb) {
			return fail(fmt.Sprintf("routes of node %d", i), xa, xb)
		}
		if x, y := a.Nodes[i].MPRSet(t), b.Nodes[i].MPRSet(t); !slices.Equal(x, y) {
			return fail(fmt.Sprintf("MPR set of node %d", i), x, y)
		}
		if x, y := a.Nodes[i].ANS(t), b.Nodes[i].ANS(t); !slices.Equal(x, y) {
			return fail(fmt.Sprintf("ANS of node %d", i), x, y)
		}
	}
	return true
}

// run compares the pair at checkpoints 1.7 ms apart over the first second
// after fine (whole floods, every frame of them between two checkpoints),
// then every 100 ms to end, then after a delivery sweep to four destinations.
func (p *floodPair) run(fine, end time.Duration) {
	p.t.Helper()
	for t := fine; t < fine+time.Second; t += 1700 * time.Microsecond {
		if !p.check(t, true) {
			return
		}
	}
	for t := fine + time.Second; t <= end; t += 100 * time.Millisecond {
		if !p.check(t, true) {
			return
		}
	}
	if p.a.Stats.DupSuppressed == 0 || p.a.Stats.TCForwarded == 0 {
		p.t.Fatalf("no flood was relayed or suppressed: %+v", p.a.Stats)
	}
	for _, dst := range []int32{0, 3, 5, 8} {
		da, _ := p.a.DeliverySweep(dst)
		db, _ := p.b.DeliverySweep(dst)
		if da != db {
			p.t.Errorf("sweep to %d delivered %g vs %g", dst, da, db)
		}
	}
	p.check(p.a.Engine.Now(), false)
}

// TestIdealFloodMatchesPerDelivery holds the ideal medium's send-time
// claims to the per-delivery duplicate test they replace. Each case runs
// one seeded field on the ideal medium and on perDeliveryIdeal in
// lockstep, and compares every Stats and Data field, the medium's
// counters, the scheduler's executed, scheduled and fixed-lane counts, and
// every node's routes, MPR set and ANS, at checkpoints 1.7 ms apart across
// whole floods and then at coarse ones: the classic plane; delta TCs with
// fish-eye TTLs {2, 0} and min-cover flood relays; links failed and
// restored mid-flood; and topology swaps with frames in flight.
func TestIdealFloodMatchesPerDelivery(t *testing.T) {
	field := geom.Field{Width: 450, Height: 450}
	pts, err := geom.Deployment{Field: field, Radius: 100, Degree: 12}.Sample(rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnitDiskTopology(field, 100, pts, "bandwidth", 41)
	if err != nil {
		t.Fatal(err)
	}
	classic := olsr.DefaultConfig(metric.Bandwidth())

	t.Run("classic", func(t *testing.T) {
		newFloodPair(t, g, classic).run(10*time.Second, 30*time.Second)
	})
	t.Run("delta-fisheye-mincover", func(t *testing.T) {
		cfg := classic
		cfg.DeltaTC = true
		cfg.Fisheye = true
		cfg.MinCoverRelays = true
		newFloodPair(t, g, cfg).run(10*time.Second, 30*time.Second)
	})
	t.Run("fail-restore-mid-flood", func(t *testing.T) {
		p := newFloodPair(t, g, classic)
		hits := p.perturb(10*time.Second, 25*time.Second, 47*time.Millisecond, func(nw *Network, k int) {
			a, b := g.EdgeEndpoints(k * 7919 % g.M())
			if k%2 == 0 {
				_ = nw.FailLink(a, b)
			} else {
				_ = nw.RestoreLink(a, b)
			}
			if k%16 == 15 {
				nw.RestoreAllLinks()
			}
		})
		p.run(10*time.Second, 30*time.Second)
		if hits[0] != hits[1] || hits[0] < 100 {
			t.Errorf("link changes mid-flood: %v, want equal and at least 100", *hits)
		}
	})
	t.Run("set-topology-in-flight", func(t *testing.T) {
		moved := make([]geom.Point, len(pts))
		r := rand.New(rand.NewSource(43))
		for i, pt := range pts {
			moved[i] = geom.Point{X: min(max(pt.X+40*r.Float64()-20, 0), field.Width), Y: min(max(pt.Y+40*r.Float64()-20, 0), field.Height)}
		}
		g2, err := UnitDiskTopology(field, 100, moved, "bandwidth", 41)
		if err != nil {
			t.Fatal(err)
		}
		p := newFloodPair(t, g, classic)
		hits := p.perturb(10*time.Second, 25*time.Second, 131*time.Millisecond, func(nw *Network, k int) {
			next := g2
			if k%2 == 1 {
				next = g
			}
			if err := nw.SetTopology(next); err != nil {
				t.Fatal(err)
			}
		})
		p.run(10*time.Second, 30*time.Second)
		if hits[0] != hits[1] || hits[0] < 50 {
			t.Errorf("topology swaps in flight: %v, want equal and at least 50", *hits)
		}
	})
}
