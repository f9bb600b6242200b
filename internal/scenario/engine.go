package scenario

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/des"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
	"qolsr/internal/route"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

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
	// The persistent flow endpoints: uniform ordered (src, dst) pairs, the
	// draw sequence locked by the goldens.
	flows := sim.DrawPairs(nw.Phys.N(), flowCount, deriveSeed(seed, "traffic", run))

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
		tFlows, err := traffic.FlowsFromSpecs(sc.Traffic.Mix, flows, sc.Warmup)
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
	smp := newSampler(flows)
	for _, t := range sc.SampleTimes() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nw.Run(t)
		if phaseErr != nil {
			return nil, phaseErr
		}
		// Rebuild barrier: bring every flow source's routing table up to
		// date before measuring, so the tables measure and the data plane
		// then read are cache hits.
		if _, err := nw.RebuildRoutes(smp.sources, 1); err != nil {
			return nil, fmt.Errorf("scenario %s: route rebuild at %v: %w", sc.Name, t, err)
		}
		s, err := smp.measure(nw, cfg.Metric, channel, flows, t, drain, eng)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: sample at %v: %w", sc.Name, t, err)
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

// sampler takes a run's samples. Between samples it keeps the counters each
// sample diffs against, as of the previous sample time, and the ground
// truth's working state: a search scratch per kind and a record per flow.
type sampler struct {
	order   []int32 // flow indices, stably sorted by source
	sources []int32 // the distinct flow sources, ascending
	fl      []flowTruth

	hop, opt          graph.Scratch
	prevT             time.Duration
	prevCtrl, prevFwd uint64 // HELLO + TC bytes on the air, and the TC relay share
	prevCnt           traffic.Counters
	prevReb           olsr.RebuildStats

	// s is the sample being taken, and stretchN counts its delivered
	// probes with a positive optimal hop count: probes complete into both
	// through PacketDone.
	s        Sample
	stretchN int
}

// PacketDone implements sim.DataSink for the probes; the cookie is the
// probe's flow index.
func (smp *sampler) PacketDone(cookie uint64, delivered bool, hops int, _ time.Duration) {
	if !delivered {
		return
	}
	smp.s.Delivered++
	if optHops := smp.fl[cookie].optHops; optHops > 0 {
		smp.s.HopStretch += float64(hops) / optHops
		smp.stretchN++
	}
}

// flowTruth is one flow's reachability, optimal hop count and
// routing-table overhead in the current sample.
type flowTruth struct {
	reach, scored     bool
	optHops, overhead float64
}

func newSampler(flows [][2]int32) *sampler {
	smp := &sampler{order: make([]int32, len(flows)), fl: make([]flowTruth, len(flows))}
	for i := range smp.order {
		smp.order[i] = int32(i)
	}
	slices.SortStableFunc(smp.order, func(a, b int32) int { return cmp.Compare(flows[a][0], flows[b][0]) })
	for k, i := range smp.order {
		if k == 0 || flows[smp.order[k-1]][0] != flows[i][0] {
			smp.sources = append(smp.sources, flows[i][0])
		}
	}
	return smp
}

// measure takes the sample at virtual time t: it snapshots control traffic
// and the advertised sets' sizes (as held, selecting nothing), evaluates the
// sources' routing tables against the centralized optimum on the current
// effective topology, and measures the data plane. In probe mode it sends
// one probe per connected flow through the data plane's sink entry, the
// sampler being the sink, and runs the engine through the drain window so
// every probe completes; in traffic-engine mode (eng non-nil) the sustained
// flows are already in flight, so the sample diffs the engine's counters
// over the window instead (Delivery is then delivered/completed packets of
// the window) and no time advances. Control rates diff against the counters
// as of the previous sample time, not after its drain, or control messages
// sent during each drain window would vanish from every rate. A
// routing-table failure aborts the sample: it is surfaced to the caller
// instead of being silently sampled as an empty table.
func (smp *sampler) measure(nw *sim.Network, m metric.Metric, channel string, flows [][2]int32, t, drain time.Duration, eng *traffic.Engine) (Sample, error) {
	smp.s, smp.stretchN = Sample{Time: t, Nodes: nw.Phys.N()}, 0
	s := &smp.s
	ctrl, fwd := nw.Stats.HelloBytes+nw.Stats.TCBytes, nw.Stats.TCForwardedBytes
	if secs := (t - smp.prevT).Seconds(); secs > 0 {
		s.ControlBPS = float64(ctrl-smp.prevCtrl) / secs
		s.TCFwdBPS = float64(fwd-smp.prevFwd) / secs
	}
	if len(nw.Nodes) > 0 {
		total := 0
		for _, n := range nw.Nodes {
			total += n.StateSize().Advertised
		}
		s.SetSize = float64(total) / float64(len(nw.Nodes))
	}

	eff, w := effectiveTopology(nw, channel)
	s.Links = eff.M()
	// Ground truth, one source at a time: the hop search fixes each flow's
	// reachability and optimal hop count; for a reachable flow the source's
	// routing table (a cache hit after the rebuild barrier) is scored
	// against the QoS search's optimum on the live topology.
	var hop, opt *graph.ShortestPaths
	var table *olsr.Routes
	for k, i := range smp.order {
		src, dst := flows[i][0], flows[i][1]
		if k == 0 || flows[smp.order[k-1]][0] != src {
			hop, opt, table = smp.hop.Dijkstra(eff, metric.Hop(), w, src, nil, -1), nil, nil
		}
		f := &smp.fl[i]
		if f.reach, f.scored, f.optHops = hop.Reachable(dst), false, hop.Dist[dst]; !f.reach {
			continue
		}
		if table == nil {
			var err error
			if table, err = nw.Nodes[src].Routes(nw.Engine.Now()); err != nil {
				return Sample{}, fmt.Errorf("routing table of node %d: %w", nw.Phys.ID(src), err)
			}
		}
		entry, ok := table.Lookup(int64(nw.Phys.ID(dst)))
		if !ok {
			continue
		}
		if opt == nil {
			opt = smp.opt.Dijkstra(eff, m, w, src, nil, -1)
		}
		if f.scored = opt.Reachable(dst); f.scored {
			f.overhead = route.Overhead(m, entry.Value, opt.Dist[dst])
		}
	}
	// s.HopStretch and s.Overhead hold sums until the means are taken.
	for i, f := range smp.fl {
		if !f.reach {
			continue
		}
		s.Connected++
		if f.scored {
			s.Overhead += f.overhead
			s.OverheadFlows++
		}
		if eng != nil {
			// Sustained flows are already offering load; probes would
			// only distort the queues they contend for.
			continue
		}
		nw.SendDataTraced(flows[i][0], flows[i][1], sim.DataPacketBytes, smp, uint64(i), nil)
	}
	completed := s.Connected
	if eng == nil {
		nw.Run(t + drain)
	} else {
		cnt, prev := eng.Counters(), smp.prevCnt
		s.TrafficSent = int(cnt.Sent - prev.Sent)
		s.TrafficCompleted = int(cnt.Completed - prev.Completed)
		s.TrafficDelivered = int(cnt.Delivered - prev.Delivered)
		if secs := (t - smp.prevT).Seconds(); secs > 0 {
			s.TrafficThroughputBps = float64(cnt.BytesDelivered-prev.BytesDelivered) / secs
		}
		s.Delivered, completed = s.TrafficDelivered, s.TrafficCompleted
		smp.prevCnt = cnt
	}
	s.Delivery = 1
	if completed > 0 {
		s.Delivery = float64(s.Delivered) / float64(completed)
	}
	if smp.stretchN > 0 {
		s.HopStretch /= float64(smp.stretchN)
	}
	if s.OverheadFlows > 0 {
		s.Overhead /= float64(s.OverheadFlows)
	}
	reb := nw.RebuildTotals()
	s.SPFFull = int(reb.SPFFull - smp.prevReb.SPFFull)
	if refr, chg := reb.AdvRefresh-smp.prevReb.AdvRefresh, reb.AdvChange-smp.prevReb.AdvChange; refr+chg > 0 {
		s.SharedAdvRate = float64(refr) / float64(refr+chg)
	}
	smp.prevT, smp.prevCtrl, smp.prevFwd, smp.prevReb = t, ctrl, fwd, reb
	return smp.s, nil
}

// effectiveTopology returns the physical graph minus failed links, with the
// metric channel's weights copied over — what an omniscient router could
// use right now.
func effectiveTopology(nw *sim.Network, channel string) (*graph.Graph, []float64) {
	phys := nw.Phys
	pw, err := phys.Weights(channel)
	if err != nil {
		return graph.New(phys.N()), nil
	}
	ends, w := make([][2]int32, 0, phys.M()), make([]float64, 0, phys.M())
	for a := int32(0); int(a) < phys.N(); a++ {
		for _, arc := range phys.Arcs(a) {
			if a < arc.To && nw.LinkUp(a, arc.To) {
				ends = append(ends, [2]int32{a, arc.To})
				w = append(w, pw[arc.Edge])
			}
		}
	}
	return graph.FromEdges(graph.IndexIDs(phys.N()), ends, channel, w), w
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
	sel, serr := core.ByName(p.Selector)
	m, merr := metric.ByName(p.Metric)
	if err := errors.Join(serr, merr); err != nil {
		return olsr.Config{}, fmt.Errorf("scenario: %w", err)
	}
	if _, ok := senseNames[p.LinkSensing]; !ok {
		return olsr.Config{}, fmt.Errorf("scenario: link sensing %d is neither SenseOracle nor SenseDelivery", p.LinkSensing)
	}
	cfg := olsr.DefaultConfig(m)
	cfg.Selector, cfg.LinkSensing = sel, p.LinkSensing
	for _, part := range strings.Split(p.Plane, "+") {
		switch part {
		case "":
		case "mpr2":
			cfg.MPRHeuristic = mpr.QOLSR2
		case "delta":
			cfg.DeltaTC = true
		case "fisheye":
			cfg.FisheyeTTLs = olsr.DefaultFisheyeTTLs()
		case "minrelay":
			cfg.FloodRelay = mpr.MinCover
		default:
			return olsr.Config{}, fmt.Errorf("scenario: unknown control-plane part %q (have mpr2, delta, fisheye, minrelay)", part)
		}
	}
	return cfg, nil
}
