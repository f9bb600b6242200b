package node

import (
	"fmt"
	"testing"
	"time"

	"qolsr/internal/olsr"
)

// The trigger tests drive the run loop by hand on a virtual clock: a
// daemon's clock is the newest instant it has used (Daemon.last), so
// pinning it ahead of the wall clock makes tick and handleFrame see exactly
// the instant the test names. They check the emission deadlines themselves,
// never wall time.

// Intervals of the hand-driven chains below: HELLO and TC floors differ
// (15 s and 37.5 s), and every hold outlasts a test's virtual span between
// refreshes.
const (
	trigHello = time.Minute
	trigTC    = 150 * time.Second
)

// tickAt runs one tick of d's loop at virtual time t, ahead of the wall
// clock.
func tickAt(d *Daemon, t time.Duration) {
	d.advance(t)
	if d.timer == nil {
		d.timer = time.NewTimer(time.Hour)
	}
	d.tick()
}

// helloAt hands d the HELLO h from its origin, arriving at virtual time t.
func helloAt(tb testing.TB, d *Daemon, h *olsr.Hello, t time.Duration) {
	tb.Helper()
	frame, err := MarshalFrame(&Frame{Kind: KindControl, Sender: h.Origin, TxTime: 1, Payload: olsr.MarshalHello(h)})
	if err != nil {
		tb.Fatal(err)
	}
	d.handleFrame(Inbound{From: fmt.Sprintf("n%d", h.Origin), Data: frame, At: d.start.Add(t)})
}

// lone returns daemon 1 with peer 2 on a fresh fabric whose "n2" endpoint
// collects what the daemon sends; its loop never runs.
func lone(tb testing.TB, hello, tc time.Duration) (*Daemon, *MemTransport) {
	tb.Helper()
	mn := NewMemNetwork()
	tr, err := mn.Listen("n1")
	if err != nil {
		tb.Fatal(err)
	}
	sink, err := mn.Listen("n2")
	if err != nil {
		tb.Fatal(err)
	}
	d, err := New(Config{ID: 1, Transport: tr, Peers: []Peer{{ID: 2, Addr: "n2"}}, HelloInterval: hello, TCInterval: tc})
	if err != nil {
		tb.Fatal(err)
	}
	return d, sink
}

// ahead returns a virtual instant a minute past every chain daemon's clock.
func (c *chain) ahead() time.Duration {
	var t time.Duration
	for _, d := range c.daemons {
		t = max(t, d.now())
	}
	return t + time.Minute
}

// TestTriggerNewNeighbor: a neighbour heard for the first time pulls both
// deadlines forward — the HELLO to a quarter interval after the last HELLO,
// the TC to the arrival itself while no TC has been sent, else to a quarter
// interval after the last TC.
func TestTriggerNewNeighbor(t *testing.T) {
	t.Run("first TC", func(t *testing.T) {
		d, _ := lone(t, trigHello, trigTC)
		t0 := time.Hour
		// Run's start: a HELLO at once, the TC a period later.
		d.nextHello, d.nextTC = t0, t0+trigTC
		tickAt(d, t0)
		at := t0 + time.Millisecond
		helloAt(t, d, &olsr.Hello{Origin: 2}, at)
		if d.nextHello != t0+trigHello/4 || d.nextTC != at {
			t.Fatalf("deadlines HELLO %v, TC %v; want %v and %v", d.nextHello, d.nextTC, t0+trigHello/4, at)
		}
	})
	t.Run("floors", func(t *testing.T) {
		c := convergeChain(t, &chain{}, 3, Config{HelloInterval: trigHello, TCInterval: trigTC})
		d := c.daemons[0]
		t0 := c.ahead()
		d.nextHello, d.nextTC = t0, t0
		tickAt(d, t0)
		if d.tcFloor != t0+trigTC/4 {
			t.Fatalf("node 1 sent no TC at %v", t0)
		}
		// Node 3 comes into node 1's range.
		d.peers[3] = &peerState{id: 3, addr: "n3", weight: 1}
		d.order = append(d.order, 3)
		helloAt(t, d, &olsr.Hello{Origin: 3, Links: []olsr.LinkInfo{{Neighbor: 2, Weight: 1}}}, t0+time.Millisecond)
		if d.nextHello != t0+trigHello/4 || d.nextTC != t0+trigTC/4 {
			t.Fatalf("deadlines HELLO %v, TC %v; want %v and %v", d.nextHello, d.nextTC, t0+trigHello/4, t0+trigTC/4)
		}
	})
}

// untriggered sets every chain daemon's deadlines to a sentinel, runs f and
// fails if f moved any of them.
func (c *chain) untriggered(tb testing.TB, what string, f func()) {
	tb.Helper()
	const never = 1000 * time.Hour
	for _, d := range c.daemons {
		d.nextHello, d.nextTC = never, never
	}
	f()
	for _, d := range c.daemons {
		if d.nextHello != never || d.nextTC != never {
			tb.Fatalf("%s: node %d pulled its deadlines to HELLO %v, TC %v", what, d.cfg.ID, d.nextHello, d.nextTC)
		}
	}
}

// TestRepeatHelloTriggersNothing: a HELLO that repeats what the daemon
// already holds leaves both deadlines where they were.
func TestRepeatHelloTriggersNothing(t *testing.T) {
	c := newChain(t, 3, nil)
	t0 := c.ahead()
	c.untriggered(t, "repeated HELLO", func() {
		helloAt(t, c.daemons[1], c.daemons[0].node.GenerateHello(t0), t0)
	})
}

// TestWeightChangeTriggersNothing: a change of weights alone waits for the
// periodic emissions — a declared weight a neighbour re-advertises, and
// under measured weights the RTT rungs moving.
func TestWeightChangeTriggersNothing(t *testing.T) {
	t.Run("declared", func(t *testing.T) {
		c := newChain(t, 3, nil)
		mid := c.daemons[1]
		t0 := c.ahead()
		h := *c.daemons[0].node.GenerateHello(t0)
		h.Links = []olsr.LinkInfo{{Neighbor: 2, Weight: h.Links[0].Weight + 1}}
		before := mid.node.RebuildStats().AdvChange
		c.untriggered(t, "reweighed HELLO", func() { helloAt(t, mid, &h, t0) })
		if mid.node.RebuildStats().AdvChange != before+1 {
			t.Fatal("the reweighed link block was not ingested as a change")
		}
	})
	t.Run("measured", func(t *testing.T) {
		delay := 8 * time.Millisecond
		c := newMeasuredChain(t, 2, func(from, to int64) time.Duration { return delay })
		d := c.daemons[0]
		w0, _ := d.node.LinkWeight(2, d.now())
		delay = time.Millisecond // the windowed minima fall at once
		for round := 0; round < 3; round++ {
			for _, d := range c.daemons {
				d.nextHello, d.nextTC = 0, 0
				d.tick()
			}
			c.untriggered(t, fmt.Sprintf("round %d", round), c.pump)
		}
		if w1, _ := d.node.LinkWeight(2, d.now()); w1 == w0 {
			t.Fatalf("link weight stayed %v: the rungs did not move", w0)
		}
	})
}

// TestFlappingNeighborRespectsFloors: a neighbour whose advertised set
// changes on every frame, one a millisecond for two seconds, triggers the
// daemon at the floors and never closer: HELLOs a quarter HELLO interval
// apart, TCs a quarter TC interval apart.
func TestFlappingNeighborRespectsFloors(t *testing.T) {
	const (
		hello = 100 * time.Millisecond
		tc    = 250 * time.Millisecond
		span  = 2 * time.Second
	)
	d, sink := lone(t, hello, tc)
	t0 := time.Hour
	d.nextHello, d.nextTC = t0, t0+tc
	tickAt(d, t0)
	for at, i := t0+time.Millisecond, 0; at < t0+span; at, i = at+time.Millisecond, i+1 {
		far := int64(8 + i%2) // a two-hop node that changes every frame
		helloAt(t, d, &olsr.Hello{Origin: 2, Seq: uint16(i), Links: []olsr.LinkInfo{{Neighbor: 1, Weight: 1}, {Neighbor: far, Weight: 1}}}, at)
		if at >= min(d.nextHello, d.nextTC) {
			tickAt(d, at)
		}
	}
	sent := map[olsr.MsgType][]time.Duration{}
	for len(sink.in) > 0 {
		in := <-sink.in
		f, err := UnmarshalFrame(in.Data)
		if err != nil {
			t.Fatal(err)
		}
		typ, _ := olsr.PeekType(f.Payload)
		sent[typ] = append(sent[typ], time.Duration(f.TxTime))
	}
	for _, k := range []struct {
		typ      olsr.MsgType
		interval time.Duration
	}{{olsr.MsgHello, hello}, {olsr.MsgTC, tc}} {
		stamps := sent[k.typ]
		// Periodic emission alone would send span/interval; the floor
		// allows four times as many.
		if periodic := int(span / k.interval); len(stamps) < 3*periodic {
			t.Errorf("%v: %d sent in %v, want triggered emissions well above the periodic %d", k.typ, len(stamps), span, periodic)
		}
		for i := 1; i < len(stamps); i++ {
			if gap := stamps[i] - stamps[i-1]; gap < k.interval/4 {
				t.Fatalf("%v: emissions %v apart at %v, below the %v floor", k.typ, gap, stamps[i]-t0, k.interval/4)
			}
		}
	}
}

// TestHandleFrameBeforeRun: a triggering frame reaches a daemon whose loop
// never ran (no timer armed) without a panic, and is ingested.
func TestHandleFrameBeforeRun(t *testing.T) {
	d, _ := lone(t, 0, 0)
	helloAt(t, d, &olsr.Hello{Origin: 2}, time.Second)
	if _, ok := d.node.LinkWeight(2, time.Second); !ok {
		t.Fatal("the HELLO formed no link")
	}
}

// TestSteadyStateEmitsOnlyPeriodically runs a converged four-chain under
// declared weights for ten HELLO intervals of virtual time: no frame moves a
// deadline, and every daemon's frames_out is exactly its periodic HELLOs and
// TCs plus the TCs it re-flooded, each sent to every peer.
func TestSteadyStateEmitsOnlyPeriodically(t *testing.T) {
	c := convergeChain(t, &chain{}, 4, Config{HelloInterval: trigHello, TCInterval: trigTC})
	t0 := c.ahead()
	end := t0 + 10*trigHello
	out0 := make([]uint64, len(c.daemons))
	fwd0 := make([]uint64, len(c.daemons))
	for i, d := range c.daemons {
		d.nextHello, d.nextTC = t0, t0
		out0[i], fwd0[i] = d.metrics.framesOut.Value(), d.metrics.tcsForwarded.Value()
	}
	hellos, tcs := make([]uint64, len(c.daemons)), make([]uint64, len(c.daemons))
	for {
		now := end + 1
		for _, d := range c.daemons {
			now = min(now, d.nextHello, d.nextTC)
		}
		if now > end {
			break
		}
		type deadlines struct{ hello, tc time.Duration }
		due := make([]deadlines, len(c.daemons))
		for i, d := range c.daemons {
			if d.nextHello <= now {
				hellos[i]++
			}
			tickAt(d, now)
			if d.tcFloor == now+trigTC/4 { // a TC went out
				tcs[i]++
			}
			due[i] = deadlines{d.nextHello, d.nextTC}
		}
		c.pump()
		for i, d := range c.daemons {
			if (deadlines{d.nextHello, d.nextTC}) != due[i] {
				t.Fatalf("at %v node %d moved its deadlines from %+v to HELLO %v, TC %v", now-t0, d.cfg.ID, due[i], d.nextHello, d.nextTC)
			}
		}
	}
	for i, d := range c.daemons {
		if hellos[i] != 11 || tcs[i] != 5 {
			t.Fatalf("node %d: %d HELLOs and %d TCs due, want 11 and 5 (every node advertises a set)", d.cfg.ID, hellos[i], tcs[i])
		}
		fwd := d.metrics.tcsForwarded.Value() - fwd0[i]
		want := (hellos[i] + tcs[i] + fwd) * uint64(len(d.order))
		if got := d.metrics.framesOut.Value() - out0[i]; got != want {
			t.Errorf("node %d: frames_out %d, want %d ((%d HELLOs + %d TCs + %d forwarded) x %d peers)",
				d.cfg.ID, got, want, hellos[i], tcs[i], fwd, len(d.order))
		}
		if d.nextHello != t0+11*trigHello || d.nextTC != t0+5*trigTC {
			t.Errorf("node %d: deadlines HELLO %v, TC %v off the periodic grid", d.cfg.ID, d.nextHello-t0, d.nextTC-t0)
		}
	}
}
