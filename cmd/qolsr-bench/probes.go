package main

import (
	"fmt"
	"runtime"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/des"
	"qolsr/internal/graph"
	"qolsr/internal/mpr"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
	"qolsr/internal/traffic"
)

// Probes time one layer's public function in isolation, after the traced
// run, on inputs taken from the finished workload: its physical graph, its
// nodes' own HELLO and TC messages, its local views. A probe's ns/op is
// what an optimisation of that function should move before any end-to-end
// number does.

// probeInput is what the finished workload hands the probes.
type probeInput struct {
	// nw is a converged network: the workload's own, or — where the
	// workload does not expose one (scenario runs, daemon meshes) — a
	// simulated network of the same topology and configuration.
	nw  *sim.Network
	cfg olsr.Config
	// gate and pairs are set by workloads that admit flows.
	gate  *traffic.Gate
	pairs [][2]int32
}

// sink keeps probe results observable so the compiler cannot drop the
// calls being timed.
var sink int

// probeCalls is the number of calls a probe times; a probe whose call
// costs a large fraction of a millisecond stops at probeBudget instead, once
// it has a tenth of them.
func (c *repCtx) probeCalls() int { return scaled(c, 10000, 300) }

const probeBudget = time.Second

// timeCalls runs fn (which reports how many calls one invocation made)
// until probeCalls calls are timed, and records ns per call under name.
func (c *repCtx) timeCalls(layer, name string, fn func() int) {
	end := c.tr.begin(layer, "probe."+name)
	defer end()
	want := c.probeCalls()
	done := 0
	t0 := time.Now()
	for done < want && (done < want/10 || time.Since(t0) < probeBudget) {
		n := fn()
		if n <= 0 {
			return
		}
		done += n
	}
	c.m[name] = float64(time.Since(t0).Nanoseconds()) / float64(done)
}

// probeAll runs every probe. The two that need the live network (medium,
// admission gate) go first; then the network is let go, keeping only its
// graph and its nodes' messages, so the remaining probes do not run — and
// allocate — under the collector's view of a heap of hundreds of megabytes.
func (c *repCtx) probeAll(in probeInput) error {
	end := c.tr.begin("harness", "probes")
	defer end()
	c.probeMedium(in.nw)
	if in.gate != nil {
		c.timeCalls("traffic", "traffic.gate_decide_ns", func() int {
			for _, p := range in.pairs {
				if in.gate.Decide(p[0], p[1], traffic.Requirements{}).Admitted {
					sink++
				}
			}
			return len(in.pairs)
		})
	}
	msgs := takeMessages(in.nw)
	g, cfg := in.nw.Phys, in.cfg
	in = probeInput{}
	runtime.GC()

	c.probeDES()
	c.probeStats()
	c.probeNodeCodecs()
	if err := c.probeGraph(g, cfg); err != nil {
		return err
	}
	return c.probeOLSR(g, cfg, msgs)
}

// messages are every node's own HELLO and TC as of the end of the run.
type messages struct {
	now    time.Duration
	hellos []*olsr.Hello
	tcs    []*olsr.TC // nil for a node with nothing to advertise
}

func takeMessages(nw *sim.Network) messages {
	m := messages{now: nw.Engine.Now()}
	for _, nd := range nw.Nodes {
		m.hellos = append(m.hellos, nd.GenerateHello(m.now))
		m.tcs = append(m.tcs, nd.GenerateTC(m.now))
	}
	return m
}

// probeDES pushes the same number of events through a fresh queue twice —
// via the heap at scattered delays, and via the fixed-delay lane — keeping
// a window of pending events as the workloads do (their heaps hold a few
// hundred to a few thousand): each firing books its successor.
func (c *repCtx) probeDES() {
	const window = 2048
	n := scaled(c, 1<<20, 1<<12)
	fired := 0
	chainOf := func(q *des.Queue, book func(ev des.Event)) func() int {
		return func() int {
			left := n
			var chain des.Func
			chain = func() {
				fired++
				if left > 0 {
					left--
					book(chain)
				}
			}
			for i := 0; i < window && left > 0; i++ {
				left--
				book(chain)
			}
			q.Run(q.Now() + 24*time.Hour)
			return n
		}
	}
	var heapQ, laneQ des.Queue
	delays := rng.NewStream(uint64(c.cfg.Seed), 0xDE5)
	c.timeCalls("des", "des.schedule_ns", chainOf(&heapQ, func(ev des.Event) {
		heapQ.After(time.Duration(1+delays.Int63n(int64(time.Second))), ev)
	}))
	c.timeCalls("des", "des.fixed_lane_ns", chainOf(&laneQ, func(ev des.Event) {
		laneQ.AfterFixed(time.Millisecond, ev)
	}))
	sink += fired
}

func (c *repCtx) probeStats() {
	q := stats.NewQuantile(0.99)
	s := rng.NewStream(uint64(c.cfg.Seed), 0x57A7)
	c.timeCalls("stats", "stats.quantile_add_ns", func() int {
		for i := 0; i < 1000; i++ {
			q.Add(s.Float64())
		}
		return 1000
	})
	sink += q.N()
}

// probeGraph times selection and shortest paths on the final graph's
// local views.
func (c *repCtx) probeGraph(g *graph.Graph, cfg olsr.Config) error {
	m := cfg.Metric
	w, err := g.Weights(m.Name())
	if err != nil {
		return err
	}
	// Views of up to 256 evenly spaced nodes: enough to average over the
	// field's neighbourhood shapes without holding every view of a
	// 1,500-node graph.
	step := 1 + g.N()/256
	var views []*graph.LocalView
	for u := 0; u < g.N(); u += step {
		views = append(views, graph.NewLocalView(g, int32(u)))
	}
	var probeErr error
	overViews := func(fn func(v *graph.LocalView) error) func() int {
		return func() int {
			for _, v := range views {
				if err := fn(v); err != nil {
					probeErr = err
					return 0
				}
			}
			return len(views)
		}
	}
	sel := core.FNBP{}
	c.timeCalls("core", "core.fnbp_select_ns", overViews(func(v *graph.LocalView) error {
		ans, err := sel.Select(v, m, w)
		sink += len(ans)
		return err
	}))
	heuristic := cfg.MPRHeuristic
	if heuristic == 0 {
		heuristic = mpr.Greedy
	}
	c.timeCalls("mpr", "mpr.select_ns", overViews(func(v *graph.LocalView) error {
		set, err := mpr.Select(v, heuristic, m, w)
		sink += len(set)
		return err
	}))
	c.timeCalls("graph", "graph.first_hops_ns", overViews(func(v *graph.LocalView) error {
		fh, err := graph.ComputeFirstHops(v, m, w)
		if err == nil {
			sink += len(fh.Dist)
		}
		return err
	}))
	if probeErr != nil {
		return fmt.Errorf("graph probes: %w", probeErr)
	}

	// Full Dijkstra from 64 evenly spaced sources, scratch reused as the
	// route rebuild does.
	var scratch graph.Scratch
	srcStep := 1 + g.N()/64
	end := c.tr.begin("graph", "probe.graph.spf_ns")
	rounds, searches := scaled(c, 4, 1), 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for s := 0; s < g.N(); s += srcStep {
			sp := scratch.Dijkstra(g, m, w, int32(s), nil, -1)
			sink += len(sp.Reached)
			searches++
		}
	}
	c.m["graph.spf_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(searches)
	end()
	return nil
}

// probeOLSR times the control plane's public entry points on a stand-alone
// replica of one node, fed the converged network's own messages.
func (c *repCtx) probeOLSR(g *graph.Graph, cfg olsr.Config, msgs messages) error {
	now, hellos, tcs := msgs.now, msgs.hellos, msgs.tcs
	n := len(hellos)

	var bytesOut int
	c.timeCalls("olsr", "olsr.codec_hello_ns", func() int {
		for _, h := range hellos {
			buf := olsr.MarshalHello(h)
			if _, err := olsr.UnmarshalHello(buf); err != nil {
				return 0
			}
			bytesOut += len(buf)
		}
		return n
	})
	var tcCount int
	for _, t := range tcs {
		if t != nil {
			tcCount++
		}
	}
	if tcCount == 0 {
		return fmt.Errorf("olsr probes: converged network advertises no TC")
	}
	c.timeCalls("olsr", "olsr.codec_tc_ns", func() int {
		for _, t := range tcs {
			if t == nil {
				continue
			}
			buf := olsr.MarshalTC(t)
			if _, err := olsr.UnmarshalTC(buf); err != nil {
				return 0
			}
			bytesOut += len(buf)
		}
		return tcCount
	})
	sink += bytesOut

	// The replica stands where the best-connected node stands: it hears
	// that node's neighbours' HELLOs and every origin's TC.
	center := int32(0)
	for x := int32(0); int(x) < g.N(); x++ {
		if g.Degree(x) > g.Degree(center) {
			center = x
		}
	}
	var nbrs []int32
	for _, a := range g.Arcs(center) {
		nbrs = append(nbrs, a.To)
	}
	if len(nbrs) == 0 {
		return fmt.Errorf("olsr probes: node %d has no neighbour", center)
	}
	// As sim.NewNetwork configures its nodes: the flood layer owns
	// duplicate suppression and identifiers are dense.
	cfg.ExternalDupSuppression = true
	cfg.DenseIDs = n
	replica, err := olsr.NewNode(int64(g.ID(center)), cfg)
	if err != nil {
		return err
	}
	feedHellos := func() int {
		for _, v := range nbrs {
			replica.HandleHello(hellos[v], now)
		}
		return len(nbrs)
	}
	feedHellos()
	sender := int64(g.ID(nbrs[0]))
	for _, t := range tcs {
		if t != nil {
			replica.HandleTC(t, sender, now)
		}
	}
	if _, err := replica.Routes(now); err != nil {
		return err
	}

	c.timeCalls("olsr", "olsr.handle_hello_ns", feedHellos)
	c.timeCalls("olsr", "olsr.handle_tc_refresh_ns", func() int {
		for _, t := range tcs {
			if t != nil {
				replica.HandleTC(t, sender, now)
			}
		}
		return tcCount
	})

	// Change path: flip one far origin's first link weight back and forth;
	// each ingest marks dirty pairs, each Routes call repairs the table.
	var origin *olsr.TC
	for i := n - 1; i >= 0; i-- {
		if t := tcs[i]; t != nil && t.Origin != replica.ID && len(t.Links) > 0 {
			origin = t
			break
		}
	}
	if origin == nil {
		return fmt.Errorf("olsr probes: no remote TC to perturb")
	}
	bumped := append([]olsr.LinkInfo(nil), origin.Links...)
	bumped[0].Weight++
	variants := [2]*olsr.TC{
		{Origin: origin.Origin, ANSN: origin.ANSN, Links: bumped},
		{Origin: origin.Origin, ANSN: origin.ANSN, Links: origin.Links},
	}
	var ingest, repair time.Duration
	calls := scaled(c, 2000, 100)
	end := c.tr.begin("olsr", "probe.olsr.handle_tc_change_ns")
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		replica.HandleTC(variants[i%2], sender, now)
		t1 := time.Now()
		if _, err := replica.Routes(now); err != nil {
			return err
		}
		ingest += t1.Sub(t0)
		repair += time.Since(t1)
	}
	end()
	c.m["olsr.handle_tc_change_ns"] = float64(ingest.Nanoseconds()) / float64(calls)
	c.m["olsr.routes_repair_ns"] = float64(repair.Nanoseconds()) / float64(calls)

	// Recompute path: a changed own-link weight invalidates the local
	// view; ANS() re-derives it (local view, FNBP, MPR).
	w0, ok := replica.LinkWeight(sender, now)
	if !ok {
		return fmt.Errorf("olsr probes: replica has no link to %d", sender)
	}
	flip := 0
	c.timeCalls("olsr", "olsr.recompute_ns", func() int {
		flip ^= 1
		replica.UpdateLink(sender, w0+float64(flip), now)
		sink += len(replica.ANS(now))
		return 1
	})
	return nil
}

// probeMedium times frame planning on the workload's own medium, one
// frame per virtual second per sender so no transmit queue builds up: the
// probe reads the per-frame cost, not queueing the workload already
// counted.
func (c *repCtx) probeMedium(nw *sim.Network) {
	g := nw.Phys
	medium := nw.Medium()
	now := nw.Engine.Now()
	dsts := make([][]int32, g.N())
	for x := range dsts {
		for _, a := range g.Arcs(int32(x)) {
			dsts[x] = append(dsts[x], a.To)
		}
	}
	c.timeCalls("sim", "sim.medium.plan_frame_ns", func() int {
		now += time.Second
		for x := range dsts {
			sink += len(medium.PlanFrame(int32(x), dsts[x], sim.DataPacketBytes, now))
		}
		return len(dsts)
	})
}
