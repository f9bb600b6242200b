package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/des"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
	"qolsr/internal/route"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// flow is one persistent probe (source, destination) pair.
type flow struct{ src, dst int32 }

// ctrlSnapshot carries the control-byte counters between samples so each
// sample's rates diff against the previous sample, not the drain window.
type ctrlSnapshot struct {
	// total is HELLO + TC bytes on the air; fwd the TC relay share.
	total, fwd uint64
}

// disruption records one fired phase for reconvergence tracking.
type disruption struct {
	desc string
	at   time.Duration
}

// Execute runs one replicate of sc: every RNG stream derives from (seed,
// run) alone, so replicates are independent and the same (scenario, seed,
// run) triple always reproduces the same RunResult bit for bit. emit, when
// non-nil, receives each Sample as soon as it is measured. Cancelling ctx
// stops between samples and returns ctx.Err().
func Execute(ctx context.Context, sc Scenario, seed int64, run int, emit func(Sample)) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}

	pts, err := samplePoints(sc, seed, run)
	if err != nil {
		return nil, err
	}
	cfg, err := protocolConfig(sc.Protocol)
	if err != nil {
		return nil, err
	}
	channel := cfg.Metric.Name()
	field := sc.Topology.field()
	radius := sc.Topology.radius()
	medium, lossy, err := buildMedium(sc.Medium, seed, run)
	if err != nil {
		return nil, err
	}
	netOpts := sim.NetworkOptions{
		Seed:   deriveSeed(seed, "protocol", run),
		Medium: medium,
	}

	// Deploy: a mobile population or a static unit-disk network. Both use
	// stable per-pair link weights, so a link that breaks and re-forms
	// keeps its QoS value.
	var (
		nw *sim.Network
		ms *sim.MobileSim
	)
	if sc.Mobility != nil {
		model := sc.Mobility.Model
		model.Field = field
		ms, err = sim.NewMobileSim(model, pts, radius, cfg, netOpts,
			rebuildEvery, deriveSeed(seed, "mobility", run))
		if err != nil {
			return nil, err
		}
		nw = ms.NW
	} else {
		g, err := sim.UnitDiskTopology(field, radius, pts, channel, netOpts.Seed)
		if err != nil {
			return nil, err
		}
		nw, err = sim.NewNetwork(g, cfg, netOpts)
		if err != nil {
			return nil, err
		}
	}

	// Distance-dependent loss needs the node geometry; only static
	// topologies have a stable one (under mobility the captured positions
	// would go stale, so the component stays off — see Medium docs).
	if lossy != nil && ms == nil {
		lossy.SetGeometry(pts, radius)
	}

	// Path tracing: the tracer seed derives from (seed, run) like every
	// other stream, and sampling is keyed by packet identity, so the trace
	// is a pure function of the run — byte-identical at any worker count.
	var tracer *obs.Tracer
	if sc.Obs.TraceEvery > 0 {
		tracer = obs.NewTracer(deriveSeed(seed, "trace", run), sc.Obs.TraceEvery, run)
		nw.Tracer = tracer
	}

	positions := func() []geom.Point {
		if ms != nil {
			ms.Mob.AdvanceTo(nw.Engine.Now())
			return ms.Mob.Positions()
		}
		return pts
	}

	flowCount := sc.Traffic.Flows
	if len(sc.Traffic.Mix) > 0 {
		flowCount = 0
		for _, sp := range sc.Traffic.Mix {
			flowCount += sp.Count
		}
	}
	flows := drawFlows(flowCount, nw.Phys.N(), deriveSeed(seed, "traffic", run))
	sources := flowSources(flows)

	if ms != nil {
		ms.Start()
	} else {
		nw.Start()
	}

	// Engine mode: the flow-class mix rides the live stack as sustained
	// load — admission-gated at each flow's start, contending for the
	// medium's transmit queues until the run ends.
	var eng *traffic.Engine
	if len(sc.Traffic.Mix) > 0 {
		pairs := make([][2]int32, len(flows))
		for i, f := range flows {
			pairs[i] = [2]int32{f.src, f.dst}
		}
		tFlows, err := traffic.FlowsFromSpecs(sc.Traffic.Mix, pairs, sc.Warmup)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		eng = traffic.NewEngine(nw, deriveSeed(seed, "flows", run))
		for _, f := range tFlows {
			if err := eng.Add(f); err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
		}
		if err := eng.Start(sc.Duration); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}

	// Metrics: the registry reads the run's counters lazily at snapshot
	// time, so attaching it costs nothing during the run. Engine collectors
	// register after every Add (class collectors are per known class).
	var reg *obs.Registry
	if sc.Obs.Metrics {
		reg = obs.New()
		nw.Instrument(reg)
		if eng != nil {
			eng.Instrument(reg)
		}
	}

	// Timeline: apply each phase at its virtual time. Equal-time phases
	// fire in timeline order (the engine breaks ties by scheduling order).
	env := &actionEnv{
		nw:        nw,
		field:     field,
		rng:       rand.New(rand.NewSource(deriveSeed(seed, "events", run))),
		lossy:     lossy,
		positions: positions,
	}
	phases := append([]Phase(nil), sc.Phases...)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].At < phases[j].At })
	var (
		disruptions []disruption
		phaseErr    error
	)
	for _, ph := range phases {
		nw.Engine.At(ph.At, des.Func(func() {
			if phaseErr != nil {
				return
			}
			if err := ph.Action.apply(env); err != nil {
				phaseErr = fmt.Errorf("scenario %s: phase %q at %v: %w", sc.Name, ph.Action.Describe(), ph.At, err)
				return
			}
			disruptions = append(disruptions, disruption{desc: ph.Action.Describe(), at: nw.Engine.Now()})
		}))
	}

	res := &RunResult{Run: run, Nodes: nw.Phys.N()}
	drain := probeDrain(medium)
	var (
		prevT    time.Duration
		prevCtrl ctrlSnapshot
		prevCnt  traffic.Counters
		prevReb  olsr.RebuildStats
	)
	for _, t := range sc.SampleTimes() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nw.Run(t)
		if phaseErr != nil {
			return nil, phaseErr
		}
		// Rebuild barrier: bring every flow source's routing table up to
		// date before measuring, fanning the table computations across the
		// worker budget. The tables measure and the data plane then read
		// are cache hits; results are bit-identical at every worker count.
		if _, err := nw.RebuildRoutes(sources, sc.Workers); err != nil {
			return nil, fmt.Errorf("scenario %s: route rebuild at %v: %w", sc.Name, t, err)
		}
		s, ctrl, err := measure(nw, cfg.Metric, channel, flows, t, prevT, prevCtrl, drain, eng, prevCnt)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: sample at %v: %w", sc.Name, t, err)
		}
		reb := nw.RebuildTotals()
		s.SPFFull = int(reb.SPFFull - prevReb.SPFFull)
		if refr, chg := reb.AdvRefresh-prevReb.AdvRefresh, reb.AdvChange-prevReb.AdvChange; refr+chg > 0 {
			s.SharedAdvRate = float64(refr) / float64(refr+chg)
		}
		prevReb = reb
		prevT = t
		prevCtrl = ctrl
		if eng != nil {
			prevCnt = eng.Counters()
		}
		res.Samples = append(res.Samples, s)
		if emit != nil {
			emit(s)
		}
	}
	// Phases may be scheduled after the last sample time (Validate allows
	// any At <= Duration): run the timeline out so they fire, and surface
	// errors they raise — including ones raised during the final sample's
	// drain window above.
	nw.Run(sc.Duration)
	if phaseErr != nil {
		return nil, phaseErr
	}
	if eng != nil {
		// Let in-flight packets complete before the final accounting
		// (sources stop at Duration; only deliveries and periodic
		// control emissions happen in this window). The drain flushes
		// bounded queues, not a saturated backlog — under sustained
		// overload, packets still queued at the horizon count as sent
		// but never complete, deflating end-of-run delivery exactly as a
		// real measurement window would.
		nw.Run(sc.Duration + drain)
		res.Traffic = eng.Report()
	}

	res.Reconvergence = reconvergence(res.Samples, disruptions, sc.Duration)
	res.Control = nw.Stats
	res.Data = nw.Data
	res.Rebuild = nw.RebuildTotals()
	if ms != nil {
		res.Rebuilds = ms.Rebuilds
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if tracer != nil {
		res.Trace = tracer.Events()
	}
	return res, nil
}

// reconvergence derives the recovery record of each disruptive phase from
// the sample series. Recovery means the delivery ratio is back at the
// pre-event baseline — the last sample strictly before the event (full
// delivery when none exists; protocols like FNBP can sit below full
// delivery in steady state, so an absolute criterion would be unreachable).
// Degradation may surface only after the soft-state hold time, so the
// search first finds the delivery trough in the event's window, then the
// first sample at or after the trough that is back at baseline. A window
// with no dip below baseline recovers at its first sample. Both searches
// stop at the next disruption: delivery restored only after a later phase
// intervened (e.g. a scheduled heal) is that phase's doing, and attributing
// it here would mask the protocol's own recovery speed — the window reports
// not-recovered instead.
//
// Window membership honours the engine's event order: phases at time t fire
// before the sample at t is measured, so a sample taken exactly at a
// phase's fire time reflects that phase and belongs to its window, not the
// previous one.
func reconvergence(samples []Sample, disruptions []disruption, duration time.Duration) []Reconvergence {
	var out []Reconvergence
	for i, d := range disruptions {
		rc := Reconvergence{Phase: d.desc, EventTime: d.at}
		baseline := 1.0
		for _, s := range samples {
			if s.Time >= d.at {
				break
			}
			baseline = s.Delivery
		}
		// The last window runs through the end of the run inclusive;
		// earlier windows end exclusively at the next disruption.
		inWindow := func(t time.Duration) bool { return t >= d.at && t <= duration }
		if i+1 < len(disruptions) {
			next := disruptions[i+1].at
			inWindow = func(t time.Duration) bool { return t >= d.at && t < next }
		}
		troughAt := time.Duration(-1)
		trough := baseline
		for _, s := range samples {
			if !inWindow(s.Time) {
				continue
			}
			if s.Delivery < trough {
				trough = s.Delivery
				troughAt = s.Time
			}
		}
		for _, s := range samples {
			if !inWindow(s.Time) || s.Time < troughAt {
				continue
			}
			if s.Delivery >= baseline {
				rc.Recovered = true
				rc.RecoveredAt = s.Time
				break
			}
		}
		out = append(out, rc)
	}
	return out
}

// measure takes one sample at virtual time t: it snapshots control traffic
// and advertised sets, evaluates the sources' routing tables against the
// centralized optimum on the current effective topology, and measures the
// data plane. In legacy probe mode it injects one probe packet per flow and
// runs the engine through the drain window so every packet completes; in
// traffic-engine mode (eng non-nil) the sustained flows are already in
// flight, so the sample diffs the engine's counters over the window instead
// (Delivery is then delivered/completed packets of the window) and no time
// advances. It returns the sample and the control-byte counter as of t —
// the caller must carry that (not the post-drain counter) into the next
// sample's rate, or control messages sent during each drain window would
// vanish from every rate. A routing-table failure aborts the sample: it is
// surfaced to the caller instead of being silently sampled as an empty
// table.
func measure(nw *sim.Network, m metric.Metric, channel string, flows []flow, t, prevT time.Duration, prev ctrlSnapshot, drain time.Duration, eng *traffic.Engine, prevCnt traffic.Counters) (Sample, ctrlSnapshot, error) {
	s := Sample{Time: t, Nodes: nw.Phys.N()}

	ctrl := ctrlSnapshot{
		total: nw.Stats.HelloBytes + nw.Stats.TCBytes,
		fwd:   nw.Stats.TCForwardedBytes,
	}
	if secs := (t - prevT).Seconds(); secs > 0 {
		s.ControlBPS = float64(ctrl.total-prev.total) / secs
		s.TCFwdBPS = float64(ctrl.fwd-prev.fwd) / secs
	}
	if sets, err := nw.ANSSets(); err == nil && len(sets) > 0 {
		total := 0
		for _, set := range sets {
			total += len(set)
		}
		s.SetSize = float64(total) / float64(len(sets))
	}

	eff, w := effectiveTopology(nw, channel)
	s.Links = eff.M()

	// Per-source searches are shared across flows with the same source.
	// The routing tables are the nodes' own cached snapshots, not copies:
	// caching them per source here only avoids re-running the nodes'
	// (cheap) validity checks.
	hopSPs := make(map[int32]*graph.ShortestPaths)
	optSPs := make(map[int32]*graph.ShortestPaths)
	tables := make(map[int32]*olsr.Routes)
	var (
		stretchSum  float64
		stretchN    int
		overheadSum float64
		overheadN   int
	)
	for _, f := range flows {
		if eff.M() == 0 {
			break
		}
		hopSP := hopSPs[f.src]
		if hopSP == nil {
			hopSP = graph.Dijkstra(eff, metric.Hop(), w, f.src, nil, -1)
			hopSPs[f.src] = hopSP
		}
		if !hopSP.Reachable(f.dst) {
			continue
		}
		s.Connected++
		optHops := hopSP.Dist[f.dst]

		// Routing-table overhead: what the source would achieve right
		// now against the optimum on the live physical topology.
		table, ok := tables[f.src]
		if !ok {
			var err error
			table, err = nw.Nodes[f.src].Routes(nw.Engine.Now())
			if err != nil {
				return Sample{}, ctrlSnapshot{}, fmt.Errorf("routing table of node %d: %w", nw.Phys.ID(f.src), err)
			}
			tables[f.src] = table
		}
		if entry, ok := table.Lookup(int64(nw.Phys.ID(f.dst))); ok {
			optSP := optSPs[f.src]
			if optSP == nil {
				optSP = graph.Dijkstra(eff, m, w, f.src, nil, -1)
				optSPs[f.src] = optSP
			}
			if optSP.Reachable(f.dst) {
				overheadSum += route.Overhead(m, entry.Value, optSP.Dist[f.dst])
				overheadN++
			}
		}

		if eng != nil {
			// Sustained flows are already offering load; probes would
			// only distort the queues they contend for.
			continue
		}
		nw.SendData(f.src, f.dst, func(ok bool, hops int, _ time.Duration) {
			if !ok {
				return
			}
			s.Delivered++
			if optHops > 0 {
				stretchSum += float64(hops) / optHops
				stretchN++
			}
		})
	}
	if eng == nil {
		nw.Run(t + drain)
		s.Delivery = 1
		if s.Connected > 0 {
			s.Delivery = float64(s.Delivered) / float64(s.Connected)
		}
	} else {
		cnt := eng.Counters()
		s.TrafficSent = int(cnt.Sent - prevCnt.Sent)
		s.TrafficCompleted = int(cnt.Completed - prevCnt.Completed)
		s.TrafficDelivered = int(cnt.Delivered - prevCnt.Delivered)
		if secs := (t - prevT).Seconds(); secs > 0 {
			s.TrafficThroughputBps = float64(cnt.BytesDelivered-prevCnt.BytesDelivered) / secs
		}
		s.Delivered = s.TrafficDelivered
		s.Delivery = 1
		if s.TrafficCompleted > 0 {
			s.Delivery = float64(s.TrafficDelivered) / float64(s.TrafficCompleted)
		}
	}
	if stretchN > 0 {
		s.HopStretch = stretchSum / float64(stretchN)
	}
	s.OverheadFlows = overheadN
	if overheadN > 0 {
		s.Overhead = overheadSum / float64(overheadN)
	}
	return s, ctrl, nil
}

// effectiveTopology returns the physical graph minus failed links, with the
// metric channel's weights copied over — what an omniscient router could
// use right now. The weight slice is nil when the graph has no edges.
func effectiveTopology(nw *sim.Network, channel string) (*graph.Graph, []float64) {
	phys := nw.Phys
	w, err := phys.Weights(channel)
	if err != nil {
		return graph.New(phys.N()), nil
	}
	eff := graph.New(phys.N())
	for a := int32(0); int(a) < phys.N(); a++ {
		for _, arc := range phys.Arcs(a) {
			if a >= arc.To || !nw.LinkUp(a, arc.To) {
				continue
			}
			e, err := eff.AddEdge(a, arc.To)
			if err != nil {
				continue
			}
			_ = eff.SetWeight(channel, e, w[arc.Edge])
		}
	}
	ew, err := eff.Weights(channel)
	if err != nil {
		return eff, nil
	}
	return eff, ew
}

// probeDrain is how long a probe sample runs the engine so that every probe
// packet completes: probes traverse at most TTL hops, each within the
// medium's per-hop latency bound (sim.DefaultPropDelay exactly on the ideal
// medium; queueing and jitter widen it on the lossy one).
func probeDrain(m sim.Medium) time.Duration {
	return time.Duration(sim.DefaultDataTTL+2) * m.HopDelayBound()
}

// buildMedium materialises the radio model for one run, returning the lossy
// handle too when the medium is lossy (nil otherwise). The lossy medium's
// draw seed derives from (seed, run) like every other stream, so replicate
// runs see independent loss realisations and stay bit-reproducible at any
// worker count.
func buildMedium(spec Medium, seed int64, run int) (sim.Medium, *sim.LossyMedium, error) {
	m, err := sim.MediumByName(spec.Kind, sim.LossyConfig{
		Loss:         spec.Loss,
		DistanceLoss: spec.DistanceLoss,
		Seed:         deriveSeed(seed, "medium", run),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	lossy, _ := m.(*sim.LossyMedium)
	return m, lossy, nil
}

// samplePoints realises the topology source for one run.
func samplePoints(sc Scenario, seed int64, run int) ([]geom.Point, error) {
	if sc.Topology.Deployment == nil {
		return sc.Topology.Points, nil
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, "topology", run)))
	// Very sparse deployments can realise fewer than two nodes; resample
	// a bounded number of times from the same stream (still a pure
	// function of (seed, run)) before giving up.
	for try := 0; try < 8; try++ {
		pts, err := sc.Topology.Deployment.Sample(rng)
		if err != nil {
			return nil, err
		}
		if len(pts) >= 2 {
			return pts, nil
		}
	}
	return nil, fmt.Errorf("scenario %s: deployment too sparse, fewer than 2 nodes in 8 draws", sc.Name)
}

// protocolConfig materialises the per-node stack configuration.
func protocolConfig(p Protocol) (olsr.Config, error) {
	sel, err := core.ByName(p.Selector)
	if err != nil {
		return olsr.Config{}, fmt.Errorf("scenario: %w", err)
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	cfg.Selector = sel
	if p.MeasuredQoS {
		cfg.LinkSensing = olsr.SenseDelivery
	}
	return cfg, nil
}

// flowSources returns the unique flow sources in ascending index order —
// the node set whose routing tables every sample barrier brings up to date.
func flowSources(flows []flow) []int32 {
	seen := make(map[int32]bool, len(flows))
	out := make([]int32, 0, len(flows))
	for _, f := range flows {
		if !seen[f.src] {
			seen[f.src] = true
			out = append(out, f.src)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// drawFlows picks the persistent flow endpoints: uniform ordered
// (src, dst) pairs with src != dst, clamped to the number of distinct
// pairs (sim.DrawPairs — the draw sequence is locked by the goldens).
func drawFlows(count, n int, seed int64) []flow {
	pairs := sim.DrawPairs(n, count, seed)
	if len(pairs) == 0 {
		return nil
	}
	out := make([]flow, len(pairs))
	for i, p := range pairs {
		out[i] = flow{src: p[0], dst: p[1]}
	}
	return out
}
