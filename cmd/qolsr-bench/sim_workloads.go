package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/scenario"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// simTotals is the exact, simulated outcome of one sim rep, gathered from
// the layers' public counters after the run. For a fixed seed every field
// repeats bit for bit, so the digest over them is the behaviour check a
// speed-up must leave untouched.
type simTotals struct {
	nodes   int
	events  uint64
	heapHW  int
	ctrl    sim.TrafficStats
	data    sim.DataStats
	medium  sim.MediumStats
	rebuild olsr.RebuildStats
	ctrlBps float64 // control bytes per virtual second, whole network
	ansMean float64
}

// recordSim turns the totals into metrics, the digest and the accounting
// gate shared by the four sim workloads.
func (c *repCtx) recordSim(t simTotals) {
	d := t.data
	c.m["delivery_ratio"] = ratio(d.Delivered, d.Sent)
	c.m["ctrl_bytes_per_node_s"] = t.ctrlBps / float64(t.nodes)
	c.m["olsr.ans_size_mean"] = t.ansMean
	c.m["sim.data.fail_ratio"] = ratio(d.NoRoute+d.Expired, d.Sent)

	c.res.Attempted = d.Sent
	if got := d.Delivered + d.Lost + d.NoRoute + d.Expired; got != d.Sent {
		c.res.Failed = diff(d.Sent, got)
		c.failf("data accounting does not balance: sent %d != delivered %d + lost %d + no_route %d + expired %d",
			d.Sent, d.Delivered, d.Lost, d.NoRoute, d.Expired)
	}
	c.res.Digest = digest(t.nodes, t.events, d.Sent, d.Delivered, d.Lost, d.NoRoute, d.Expired, d.HopsTotal,
		t.ctrl.HelloMessages, t.ctrl.TCMessages, t.ctrl.HelloBytes, t.ctrl.TCBytes,
		math.Float64bits(t.ansMean))

	if c.tr == nil {
		return
	}
	c.m["des.events"] = float64(t.events)
	c.m["des.heap_high_water"] = float64(t.heapHW)
	c.m["olsr.hello_msgs"] = float64(t.ctrl.HelloMessages)
	c.m["olsr.tc_msgs"] = float64(t.ctrl.TCMessages)
	c.m["olsr.tc_forwarded"] = float64(t.ctrl.TCForwarded)
	c.m["olsr.adv_refresh"] = float64(t.rebuild.AdvRefresh)
	c.m["olsr.adv_change"] = float64(t.rebuild.AdvChange)
	c.m["olsr.shared_adv_rate"] = ratio(t.rebuild.AdvRefresh, t.rebuild.AdvRefresh+t.rebuild.AdvChange)
	c.m["olsr.spf_full"] = float64(t.rebuild.SPFFull)
	c.m["olsr.spf_incremental"] = float64(t.rebuild.SPFIncremental)
	c.m["olsr.topo_builds"] = float64(t.rebuild.TopoBuilds)
	c.m["sim.dup_suppressed"] = float64(t.ctrl.DupSuppressed)
	c.m["sim.medium.frames_planned"] = float64(t.medium.FramesPlanned)
	c.m["sim.medium.receptions"] = float64(t.medium.Receptions)
	c.m["sim.medium.receptions_lost"] = float64(t.medium.ReceptionsLost)
	c.m["sim.medium.frames_stalled"] = float64(t.medium.FramesStalled)
	c.m["sim.medium.stall_ms"] = float64(t.medium.StallTime) / float64(time.Millisecond)
	c.m["sim.data.sent"] = float64(d.Sent)
	c.m["sim.data.delivered"] = float64(d.Delivered)
	c.m["sim.data.lost"] = float64(d.Lost)
	c.m["sim.data.no_route"] = float64(d.NoRoute)
	c.m["sim.data.expired"] = float64(d.Expired)
	c.m["sim.data.hops_mean"] = ratio(d.HopsTotal, d.Delivered)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// networkTotals reads a finished network's counters.
func networkTotals(nw *sim.Network) (simTotals, error) {
	t := simTotals{
		nodes:   nw.Phys.N(),
		events:  nw.Engine.Executed,
		heapHW:  nw.Engine.HeapHighWater,
		ctrl:    nw.Stats,
		data:    nw.Data,
		rebuild: nw.RebuildTotals(),
		ctrlBps: nw.ControlBytesPerSecond(),
	}
	if ms, ok := nw.Medium().(interface{ Stats() sim.MediumStats }); ok {
		t.medium = ms.Stats()
	}
	sets, err := nw.ANSSets()
	if err != nil {
		return t, err
	}
	var links int
	for _, s := range sets {
		links += len(s)
	}
	t.ansMean = float64(links) / float64(len(sets))
	return t, nil
}

// runSliced advances the network to until. A traced rep runs one virtual
// second at a time with a span per slice, so a GC or rebuild burst shows
// as a tail in sim.run_slice_ms; a timed rep makes the single call.
func (c *repCtx) runSliced(nw *sim.Network, until time.Duration) {
	if c.tr == nil {
		nw.Run(until)
		return
	}
	for t := nw.Engine.Now() + time.Second; ; t += time.Second {
		if t > until {
			t = until
		}
		end := c.tr.begin("sim", "sim.run_slice")
		nw.Run(t)
		end()
		if t == until {
			return
		}
	}
}

// recordSliceSpans reports the slice-duration percentiles of a traced rep.
func (c *repCtx) recordSliceSpans() {
	if ds := c.tr.durations("sim.run_slice"); len(ds) > 0 {
		c.m["sim.run_slice_ms_p50"] = quantile(ds, 0.5) * 1e3
		c.m["sim.run_slice_ms_p99"] = quantile(ds, 0.99) * 1e3
	}
}

// flowSources returns the distinct flow sources, ascending — the nodes
// whose routing tables the rebuild barrier must bring up to date.
func flowSources(pairs [][2]int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, p := range pairs {
		if !seen[p[0]] {
			seen[p[0]] = true
			out = append(out, p[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// connectedPairs draws count distinct ordered (src, dst) pairs with a
// physical path between them (netgen.PickConnectedPair, as the paper's
// simulator picks its endpoints), so no flow is offered toward an island of
// the random field.
func connectedPairs(g *graph.Graph, count int, seed int64) ([][2]int32, error) {
	r := rand.New(rand.NewSource(seed))
	seen := map[[2]int32]bool{}
	pairs := make([][2]int32, 0, count)
	for tries := 0; len(pairs) < count; tries++ {
		if tries > 100*count {
			return nil, fmt.Errorf("found only %d of %d distinct connected pairs", len(pairs), count)
		}
		src, dst, err := netgen.PickConnectedPair(g, r, 16)
		if err != nil {
			return nil, err
		}
		if p := [2]int32{src, dst}; !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	return pairs, nil
}

// heapPerNode reports the live heap per node with the network still held:
// the O(N²)-state item's memory axis, free of allocator slack and garbage.
func (c *repCtx) heapPerNode(nw *sim.Network) {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.m["runtime.heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	c.m["olsr.heap_bytes_per_node"] = float64(mem.HeapAlloc) / float64(nw.Phys.N())
	runtime.KeepAlive(nw)
}

// ---- scale-1500 ----------------------------------------------------------

// runScale is the eval S1 point rebuilt from public calls: a constant-
// density field, the ideal medium, warm-up, the route-rebuild barrier, then
// CBR flows. The timed region is Start to the end of traffic, so control-
// plane ingest and memory — not the data plane — set the result.
func runScale(c *repCtx) error {
	var (
		n       = scaled(c, 1500, 120)
		flows   = scaled(c, 32, 8)
		warmup  = scaled(c, 10*time.Second, 6*time.Second)
		simTime = scaled(c, 10*time.Second, 4*time.Second)
	)
	const degree, radius, rateBps = 10.0, 100.0, 16384.0

	endSetup := c.tr.begin("graph", "graph.build_topology")
	fieldRNG := rand.New(rand.NewSource(c.seedFor("field")))
	// Side chosen so exactly n uniform nodes hit the target mean degree.
	side := radius * math.Sqrt(math.Pi*float64(n)/degree)
	field := geom.Field{Width: side, Height: side}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: fieldRNG.Float64() * side, Y: fieldRNG.Float64() * side}
	}
	g, err := netgen.FromPoints(field, radius, pts, "bandwidth", metric.DefaultInterval(), fieldRNG)
	endSetup()
	if err != nil {
		return err
	}
	pairs, err := connectedPairs(g, flows, c.seedFor("pairs"))
	if err != nil {
		return err
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())

	endNew := c.tr.begin("sim", "sim.new_network")
	nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: c.seedFor("protocol")})
	endNew()
	if err != nil {
		return err
	}

	if err := c.beginTimed(); err != nil {
		return err
	}
	endTimed := c.tr.begin("sim", "sim.timed_region")
	nw.Start()
	endWarm := c.tr.begin("sim", "sim.warmup")
	c.runSliced(nw, warmup)
	endWarm()
	endRebuild := c.tr.begin("sim", "sim.rebuild_routes")
	rebuilt, err := nw.RebuildRoutes(flowSources(pairs), 1)
	endRebuild()
	if err != nil {
		return err
	}
	eng := traffic.NewEngine(nw, c.seedFor("flows"))
	for i, pr := range pairs {
		if err := eng.Add(traffic.Flow{
			ID: i, Class: traffic.ClassCBR, Src: pr[0], Dst: pr[1],
			RateBps: rateBps, PacketBytes: traffic.DefaultPacketBytes, Start: warmup,
		}); err != nil {
			return err
		}
	}
	stop := warmup + simTime
	if err := eng.Start(stop); err != nil {
		return err
	}
	endTraffic := c.tr.begin("sim", "sim.traffic_phase")
	c.runSliced(nw, stop)
	endTraffic()
	endTimed()
	if err := c.endTimed(nw.Engine.Executed, 0); err != nil {
		return err
	}
	// Untimed: let the packets still in flight at stop complete, so the
	// accounting below balances.
	nw.Run(stop + time.Second)

	rep := c.report(eng)
	totals, err := networkTotals(nw)
	if err != nil {
		return err
	}
	c.recordSim(totals)
	c.recordTraffic(rep)
	if !c.cfg.Smoke {
		c.gateIdeal()
	}
	if c.tr == nil {
		return nil
	}
	c.m["sim.rebuild_routes_tables"] = float64(rebuilt)
	c.recordPhaseSpans()
	c.heapPerNode(nw)
	return c.probeAll(probeInput{nw: nw, cfg: cfg, gate: eng.Gate(), pairs: pairs})
}

// gateIdeal is the delivery threshold of the two ideal-medium workloads:
// once warm, a converged network on a lossless medium delivers.
func (c *repCtx) gateIdeal() {
	if dr := c.m["delivery_ratio"]; dr < 0.99 {
		c.failf("delivery_ratio %.4f < 0.99", dr)
	}
	if fr := c.m["sim.data.fail_ratio"]; fr > 0.01 {
		c.failf("fail_ratio %.4f > 0.01", fr)
	}
}

// report builds the traffic engine's end-of-run accounting under a span.
func (c *repCtx) report(eng *traffic.Engine) *traffic.Report {
	end := c.tr.begin("traffic", "traffic.report")
	defer end()
	return eng.Report()
}

func (c *repCtx) recordTraffic(rep *traffic.Report) {
	if c.tr == nil {
		return
	}
	c.m["traffic.sent"] = float64(rep.Total.Sent)
	c.m["traffic.delivered"] = float64(rep.Total.Delivered)
	c.m["traffic.admitted"] = float64(rep.Total.Admitted)
	c.m["traffic.rejected"] = float64(rep.Total.Flows - rep.Total.Admitted)
	c.m["traffic.report_ms"] = c.tr.total("traffic.report") * 1e3
}

// recordPhaseSpans reports the set-up and phase spans of a traced sim rep.
func (c *repCtx) recordPhaseSpans() {
	c.m["sim.new_network_ms"] = c.tr.total("sim.new_network") * 1e3
	c.m["sim.warmup_ms"] = c.tr.total("sim.warmup") * 1e3
	c.m["sim.rebuild_routes_ms"] = c.tr.total("sim.rebuild_routes") * 1e3
	c.recordSliceSpans()
}

// ---- traffic-ideal / traffic-lossy --------------------------------------

// trafficField deploys the traffic workloads' field: BenchmarkTraffic-
// Engine's density (unit-disk radius 160 on a square field) at n nodes.
func (c *repCtx) trafficField() (*graph.Graph, error) {
	var (
		n    = scaled(c, 200, 50)
		side = scaled(c, 1200.0, 600.0)
	)
	end := c.tr.begin("graph", "graph.build_topology")
	defer end()
	field := geom.Field{Width: side, Height: side}
	r := rand.New(rand.NewSource(c.seedFor("field")))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	return sim.UnitDiskTopology(field, 160, pts, "bandwidth", c.seedFor("weights"))
}

// convergedNetwork builds the traffic field's network over the medium and
// warms it up: everything the traffic workloads count as set-up.
func (c *repCtx) convergedNetwork(g *graph.Graph, cfg olsr.Config, medium sim.Medium) (*sim.Network, error) {
	endNew := c.tr.begin("sim", "sim.new_network")
	nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: c.seedFor("protocol"), Medium: medium})
	endNew()
	if err != nil {
		return nil, err
	}
	nw.Start()
	endWarm := c.tr.begin("sim", "sim.warmup")
	nw.Run(15 * time.Second)
	endWarm()
	return nw, nil
}

// routablePairs draws count distinct (src, dst) pairs that the admission
// gate accepts on the converged network over a path of exactly hops hops,
// and returns how many routing tables the rebuild barrier brought up to
// date. Certain admission and equal path length make the offered load and
// the work per packet the same on every seed's field; what the seed still
// varies is which nodes and links carry the flows.
func (c *repCtx) routablePairs(nw *sim.Network, gate *traffic.Gate, count, hops int, seed int64) ([][2]int32, int, error) {
	end := c.tr.begin("sim", "sim.rebuild_routes")
	rebuilt, err := nw.RebuildRoutes(nil, 1)
	end()
	if err != nil {
		return nil, 0, err
	}
	n := int64(nw.Phys.N())
	s := rng.NewStream(uint64(seed), 0xF10)
	seen := map[[2]int32]bool{}
	var pairs [][2]int32
	for tries := 0; len(pairs) < count; tries++ {
		if tries > 1000*count {
			return nil, 0, fmt.Errorf("found only %d of %d routable pairs %d hops apart", len(pairs), count, hops)
		}
		p := [2]int32{int32(s.Int63n(n)), int32(s.Int63n(n))}
		if p[0] == p[1] || seen[p] {
			continue
		}
		seen[p] = true
		if d := gate.Decide(p[0], p[1], traffic.Requirements{}); d.Admitted && d.Hops == hops {
			pairs = append(pairs, p)
		}
	}
	return pairs, rebuilt, nil
}

func runTraffic(lossy bool) func(c *repCtx) error {
	return func(c *repCtx) error {
		var (
			perClass = scaled(c, 32, 8)
			duration = scaled(c, 600*time.Second, 30*time.Second)
			hops     = scaled(c, 5, 2)
		)
		if lossy {
			duration /= 2
		}
		const rateBps = 32768
		newMedium := func() sim.Medium {
			if lossy {
				return sim.NewLossyMedium(sim.LossyConfig{Loss: 0.05, Seed: c.seedFor("medium")})
			}
			return sim.NewIdealMedium(0)
		}

		g, err := c.trafficField()
		if err != nil {
			return err
		}
		cfg := olsr.DefaultConfig(metric.Bandwidth())
		nw, err := c.convergedNetwork(g, cfg, newMedium())
		if err != nil {
			return err
		}
		eng := traffic.NewEngine(nw, c.seedFor("flows"))
		pairs, rebuilt, err := c.routablePairs(nw, eng.Gate(), 2*perClass, hops, c.seedFor("pairs"))
		if err != nil {
			return err
		}
		start := nw.Engine.Now()
		flows, err := traffic.FlowsFromSpecs([]traffic.Spec{
			{Class: traffic.ClassCBR, Count: perClass, RateBps: rateBps},
			{Class: traffic.ClassVideo, Count: perClass, RateBps: rateBps},
		}, pairs, start)
		if err != nil {
			return err
		}
		for _, f := range flows {
			if err := eng.Add(f); err != nil {
				return err
			}
		}
		stop := start + duration
		if err := eng.Start(stop); err != nil {
			return err
		}
		ev0 := nw.Engine.Executed

		if err := c.beginTimed(); err != nil {
			return err
		}
		endTraffic := c.tr.begin("sim", "sim.traffic_phase")
		// One more second drains the packets still in flight at stop.
		c.runSliced(nw, stop+time.Second)
		endTraffic()
		if err := c.endTimed(nw.Engine.Executed-ev0, nw.Data.Sent); err != nil {
			return err
		}
		trafficWall := c.m["wall_s"]

		rep := c.report(eng)
		totals, err := networkTotals(nw)
		if err != nil {
			return err
		}
		c.recordSim(totals)
		c.recordTraffic(rep)
		if !lossy && !c.cfg.Smoke {
			c.gateIdeal()
		}
		if c.tr == nil {
			return nil
		}
		c.m["sim.rebuild_routes_tables"] = float64(rebuilt)
		c.recordPhaseSpans()
		c.heapPerNode(nw)

		// Differential cost of a data packet: the same converged network
		// run for the same virtual time with no flows costs the control
		// plane alone; what the traffic phase took beyond that, per packet,
		// is the data plane plus its accounting.
		twin, err := c.convergedNetwork(g, cfg, newMedium())
		if err != nil {
			return err
		}
		endTwin := c.tr.begin("sim", "sim.flowless_twin")
		t0 := time.Now()
		twin.Run(stop + time.Second)
		twinWall := time.Since(t0).Seconds()
		endTwin()
		if sent := nw.Data.Sent; sent > 0 {
			c.m["sim.data.marginal_ns_per_pkt"] = (trafficWall - twinWall) / float64(sent) * 1e9
		}
		return c.probeAll(probeInput{nw: nw, cfg: cfg, gate: eng.Gate(), pairs: pairs})
	}
}

// ---- mobile-dense --------------------------------------------------------

// mobile-dense runs mobileRuns independent replicates of mobileDuration
// each instead of one long one: random-waypoint legs last about as long as
// the built-in's whole 120 s, so a single replicate is one draw of the
// density process and its cost swings ±20 % with the seed; several short
// replicates average that out over the same total virtual time.
const (
	mobileRuns     = 4
	mobileDuration = 30 * time.Second
	mobileWarmup   = 10 * time.Second
	// mobileNodes pins the population (the built-in's Poisson deployment
	// drew 143 at seed 1): a node count that swings with the seed swings
	// every host-time metric with it.
	mobileNodes = 143
)

// runMobile executes replicates of the random-waypoint-dense built-in
// through the scenario engine and encodes the result — the path on which
// the paper's selection algorithm is the hot code.
func runMobile(c *repCtx) error {
	sc, err := scenario.ByName("random-waypoint-dense", "fnbp")
	if err != nil {
		return err
	}
	sc.Workers = 1
	sc.Duration, sc.Warmup = mobileDuration, mobileWarmup
	// Lazy collectors only (read once, after the run): the registry is
	// how the engine's counters leave scenario.Execute.
	sc.Obs = scenario.Obs{Metrics: true}
	dep := *sc.Topology.Deployment
	if c.cfg.Smoke {
		dep.Field.Width, dep.Field.Height = dep.Field.Width*0.65, dep.Field.Height*0.65
	}
	runs := scaled(c, mobileRuns, 1)
	fields := make([][]geom.Point, runs)
	for run := range fields {
		r := rand.New(rand.NewSource(c.seedFor(fmt.Sprintf("field-%d", run))))
		pts := make([]geom.Point, scaled(c, mobileNodes, 60))
		for i := range pts {
			pts[i] = geom.Point{X: r.Float64() * dep.Field.Width, Y: r.Float64() * dep.Field.Height}
		}
		fields[run] = pts
	}
	sc.Topology = scenario.Topology{Points: fields[0], Field: dep.Field, Radius: dep.Radius}
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return err
	}

	if err := c.beginTimed(); err != nil {
		return err
	}
	res := &scenario.Result{Scenario: sc, Seed: c.cfg.Seed}
	for run, pts := range fields {
		rsc := sc
		rsc.Topology.Points = pts
		endExec := c.tr.begin("scenario", "scenario.execute")
		var emit func(scenario.Sample)
		endSlice := func() {}
		if c.tr != nil {
			// The wall time between samples is this workload's run slice.
			endSlice = c.tr.begin("sim", "sim.run_slice")
			emit = func(scenario.Sample) {
				endSlice()
				endSlice = c.tr.begin("sim", "sim.run_slice")
			}
		}
		rr, err := scenario.Execute(context.Background(), rsc, c.cfg.Seed, run, emit)
		endSlice()
		endExec()
		if err != nil {
			return err
		}
		res.Runs = append(res.Runs, rr)
	}
	endJSON := c.tr.begin("scenario", "scenario.encode_json")
	if err := res.EncodeJSON(io.Discard); err != nil {
		return err
	}
	endJSON()
	endCSV := c.tr.begin("scenario", "scenario.encode_csv")
	if err := res.EncodeCSV(io.Discard); err != nil {
		return err
	}
	endCSV()

	// Sum the replicates' exact counts.
	t := simTotals{nodes: len(fields[0])}
	samples := 0
	for _, rr := range res.Runs {
		if len(rr.Samples) == 0 {
			return fmt.Errorf("replicate %d produced no samples", rr.Run)
		}
		snap := snapshotIndex(rr.Metrics)
		t.events += uint64(snap["qolsr_des_events_executed_total"])
		t.heapHW = max(t.heapHW, int(snap["qolsr_des_heap_high_water"]))
		t.medium.FramesPlanned += uint64(snap["qolsr_medium_frames_planned_total"])
		t.medium.Receptions += uint64(snap["qolsr_medium_receptions_total"])
		addControl(&t.ctrl, rr.Control)
		addData(&t.data, rr.Data)
		addRebuild(&t.rebuild, rr.Rebuild)
		t.ansMean += rr.Samples[len(rr.Samples)-1].SetSize / float64(len(res.Runs))
		samples += len(rr.Samples)
	}
	t.ctrlBps = float64(t.ctrl.HelloBytes+t.ctrl.TCBytes) / (sc.Duration.Seconds() * float64(len(res.Runs)))
	if err := c.endTimed(t.events, 0); err != nil {
		return err
	}
	c.recordSim(t)
	if c.tr == nil {
		return nil
	}
	c.m["scenario.samples"] = float64(samples)
	c.m["scenario.execute_ms"] = c.tr.total("scenario.execute") * 1e3
	c.m["scenario.encode_json_ms"] = c.tr.total("scenario.encode_json") * 1e3
	c.m["scenario.encode_csv_ms"] = c.tr.total("scenario.encode_csv") * 1e3
	c.recordSliceSpans()

	// scenario.Execute does not hand out its network, so the probes run
	// on a static network of the same field, density and selector,
	// converged in virtual time.
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	g, err := sim.UnitDiskTopology(dep.Field, dep.Radius, fields[0], "bandwidth", c.seedFor("weights"))
	if err != nil {
		return err
	}
	shadow, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: c.seedFor("protocol")})
	if err != nil {
		return err
	}
	shadow.Start()
	shadow.Run(12 * time.Second)
	c.heapPerNode(shadow)
	return c.probeAll(probeInput{nw: shadow, cfg: cfg})
}

func addControl(dst *sim.TrafficStats, s sim.TrafficStats) {
	dst.HelloMessages += s.HelloMessages
	dst.HelloBytes += s.HelloBytes
	dst.TCMessages += s.TCMessages
	dst.TCBytes += s.TCBytes
	dst.TCForwarded += s.TCForwarded
	dst.DupSuppressed += s.DupSuppressed
}

func addData(dst *sim.DataStats, s sim.DataStats) {
	dst.Sent += s.Sent
	dst.Delivered += s.Delivered
	dst.NoRoute += s.NoRoute
	dst.Lost += s.Lost
	dst.Expired += s.Expired
	dst.HopsTotal += s.HopsTotal
}

func addRebuild(dst *olsr.RebuildStats, s olsr.RebuildStats) {
	dst.AdvRefresh += s.AdvRefresh
	dst.AdvChange += s.AdvChange
	dst.TopoBuilds += s.TopoBuilds
	dst.SPFFull += s.SPFFull
	dst.SPFIncremental += s.SPFIncremental
}

// snapshotIndex sums a registry snapshot's values by metric name (the
// labelled series of one name are not needed apart here).
func snapshotIndex(s obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for _, m := range s.Metrics {
		if len(m.Labels) == 0 {
			out[m.Name] += m.Value
		}
	}
	return out
}
