package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
	"qolsr/internal/scenario"
	"qolsr/internal/stats"
	"qolsr/internal/traffic"
)

// The live-stack ablations — A4 control, A7 loss, A8 load, O1 overhead and
// S1 scale — are scenario grids. A grid is a base scenario, one axis that
// edits it per point, columns that edit it per column, and the quantities
// read off each cell's scenario.RunResult. Every cell is one
// scenario.Execute under the grid's seed and the run index, so the columns
// of one (point, run) deploy the same field, draw the same link weights,
// probes and flow endpoints, and differ only in what the column edits.

// liveGrid is one live-stack ablation.
type liveGrid struct {
	// Sweep is the grid's identity, axis, columns and quantities (each
	// with its read); run fills in the runs, the seed and the cells.
	Sweep
	// runs is the run count when the caller names none.
	runs int
	base scenario.Scenario
	// at edits a cell's scenario for axis value x; seed and run are the
	// cell's, which S1 draws its node positions from.
	at  func(sc *scenario.Scenario, x float64, seed int64, run int)
	col func(sc *scenario.Scenario, col int)
	// serial runs one cell at a time (liveSweep.serial); RunLiveGrid gives
	// it one run a point (S1: the axis is engine cost, not statistics).
	serial bool
}

// cellResult is what one cell's quantities read: the scenario run, its
// simulated seconds and the wall time Execute took.
type cellResult struct {
	*scenario.RunResult
	secs, wall float64
}

// ScaleAxis cuts S1's default node-count axis — {50, 100, 250, 500, 1000,
// 2500, 5000, 10000} — to [Min, Max] (Max 0 = 1000), and Optimize runs it on
// the optimised control plane: delta TCs, fish-eye scoping and min-cover
// flood relays. The other grids ignore it.
type ScaleAxis struct {
	Min, Max int
	Optimize bool
}

// The grids' shared deployment: a 600 × 600 field with R = 100, under the
// bandwidth metric (the scenario default) on RFC 3626 timers.
const (
	gridSide   = 600
	gridRadius = 100
	// gridProbes is the probe-flow count of the probe-mode grids (A4, A7
	// and O1), chosen once for all three: 32 random pairs probed every 2 s
	// from the 20 s warmup on are 672 packets a 60 s run, the order of the
	// one packet per node that the all-to-node-0 sweep they replace sent
	// on a degree-10 field, over 32 sources instead of one sink.
	gridProbes = 32
	// scaleDegree is S1's mean degree at every node count.
	scaleDegree = 10
)

// LiveGridNames lists the live-stack ablations by their -ablation name.
func LiveGridNames() []string { return []string{"control", "loss", "load", "overhead", "scale"} }

// liveGridByName returns the named grid's definition.
func liveGridByName(name string, scale ScaleAxis) (liveGrid, error) {
	switch name {
	case "control":
		return controlGrid(), nil
	case "loss":
		return lossGrid(), nil
	case "load":
		return loadGrid(), nil
	case "overhead":
		return overheadGrid(), nil
	case "scale":
		return scaleGrid(scale), nil
	}
	return liveGrid{}, fmt.Errorf("eval: unknown live grid %q (have %v)", name, LiveGridNames())
}

// sensing is the link-sensing column pair of A7 and A8: oracle weights,
// then measured link quality.
var sensing = [2]olsr.LinkSensing{olsr.SenseOracle, olsr.SenseDelivery}

// probeBase is the probe-mode base of A4, A7 and O1: a Poisson field at the
// given degree, 60 s of protocol, gridProbes probe flows sampled from 20 s
// on. The warmup is fixed, not a third of the duration, so a shortened run
// still gives every plane four TC intervals — two of fish-eye's
// unlimited-scope emissions — before its first probe.
func probeBase(degree float64) scenario.Scenario {
	return scenario.Scenario{
		Topology: scenario.Topology{Deployment: &geom.Deployment{
			Field: geom.Field{Width: gridSide, Height: gridSide}, Radius: gridRadius, Degree: degree,
		}},
		Traffic:  scenario.Traffic{Flows: gridProbes},
		Warmup:   20 * time.Second,
		Duration: 60 * time.Second,
	}
}

// atDensity is the density axis: the deployment's target mean degree.
func atDensity(sc *scenario.Scenario, x float64, _ int64, _ int) {
	dep := *sc.Topology.Deployment
	dep.Degree = x
	sc.Topology.Deployment = &dep
}

// controlGrid is A4: the advertised-set schemes' control traffic on the
// live stack, connecting Figs. 6-7 (set sizes) to TC bytes on the wire.
// The qolsr column floods on RFC 3626 greedy relays.
func controlGrid() liveGrid {
	selectors := []string{"fnbp", "topofilter", "qolsr"}
	return liveGrid{
		Sweep: Sweep{
			ID: "control", Title: "A4 — control traffic on the live stack, 60s per run",
			Axis: "density", Points: []float64{5, 10, 15, 20}, Columns: selectors,
			quantities: []quantity{
				{name: "tcB/s", format: "%.0f", read: func(c cellResult) float64 { return float64(c.Control.TCBytes) / c.secs }},
				{name: "helloB/s", read: func(c cellResult) float64 { return float64(c.Control.HelloBytes) / c.secs }},
				{name: "set", format: "%.2f", read: func(c cellResult) float64 { return c.Samples[len(c.Samples)-1].SetSize }},
				{name: "dlv", format: "%.2f", read: probeDelivery},
			},
		},
		runs: 3, base: probeBase(10), at: atDensity,
		col: func(sc *scenario.Scenario, col int) { sc.Protocol.Selector = selectors[col] },
	}
}

// lossGrid is A7: delivery against the lossy medium's packet-error rate,
// oracle link weights against measured link quality (SenseDelivery) — the
// regime the quality-routing literature says measured metrics earn their
// keep in. Every loss point shares the run's field.
func lossGrid() liveGrid {
	base := probeBase(10)
	base.Medium.Kind = "lossy"
	return liveGrid{
		Sweep: Sweep{
			ID: "loss", Title: "A7 — delivery vs. medium loss on the live stack, degree 10, 60s per run",
			Axis: "loss", Points: []float64{0, 0.1, 0.2, 0.3, 0.4}, Columns: []string{"oracle", "measured"},
			quantities: []quantity{
				{name: "dlv", format: "%.3f", read: probeDelivery},
				{name: "ctlB/s", format: "%.0f", read: controlRate},
				{name: "lost", format: "%.3f", read: func(c cellResult) float64 {
					if c.Data.Sent == 0 {
						return math.NaN()
					}
					return float64(c.Data.Lost) / float64(c.Data.Sent)
				}},
			},
		},
		runs: 3, base: base,
		at:  func(sc *scenario.Scenario, x float64, _ int64, _ int) { sc.Medium.Loss = x },
		col: func(sc *scenario.Scenario, col int) { sc.Protocol.LinkSensing = sensing[col] },
	}
}

// The A8 constants: the per-flow offered load at multiplier 1 (16 kB/s)
// and the lossy medium's base packet-error rate.
const (
	loadBaseRateBps = 16384
	loadLoss        = 0.02
)

// loadGrid is A8: sustained CBR flows over the lossy queued radio at
// growing per-flow rates, the paper's QoS-based selection (FNBP under the
// bandwidth metric) against hop-count selection (the same machinery under
// the hop metric), in both link-sensing modes. The violation ratio —
// admitted flows whose measured delay then broke the 60 ms ceiling — is the
// honest score of a selection policy under load.
func loadGrid() liveGrid {
	base := scenario.Scenario{
		Topology: probeBase(10).Topology,
		Medium:   scenario.Medium{Kind: "lossy", Loss: loadLoss},
		Traffic: scenario.Traffic{Mix: []traffic.Spec{{
			Class: "cbr", Count: 16, QoS: traffic.Requirements{MaxDelay: 60 * time.Millisecond},
		}}},
		Warmup:   25 * time.Second,
		Duration: 55 * time.Second,
	}
	return liveGrid{
		Sweep: Sweep{
			ID: "load", Title: fmt.Sprintf("A8 — QoS satisfaction vs offered load (16 flows, 60ms ceiling, loss %g, 25s warmup + 30s traffic)", loadLoss),
			Axis: "load", Points: []float64{0.5, 1, 2, 4, 8}, Columns: []string{"qos/oracle", "qos/measured", "hop/oracle", "hop/measured"},
			quantities: []quantity{
				{name: "viol", format: "%.3f", read: func(c cellResult) float64 { return c.Traffic.Total.ViolationRatio() }},
				{name: "dlv", format: "%.3f", read: func(c cellResult) float64 { return c.Traffic.Total.Delivery }},
				{name: "p95ms", format: "%.1f", read: func(c cellResult) float64 { return c.Traffic.Total.DelayP95.Seconds() * 1e3 }},
				{name: "admitted", read: func(c cellResult) float64 { return float64(c.Traffic.Total.Admitted) }},
			},
		},
		runs: 3, base: base,
		at: func(sc *scenario.Scenario, x float64, _ int64, _ int) {
			sc.Traffic.Mix = slices.Clone(sc.Traffic.Mix)
			sc.Traffic.Mix[0].RateBps = loadBaseRateBps * x
		},
		col: func(sc *scenario.Scenario, col int) {
			if col >= 2 {
				sc.Protocol.Metric = "hop"
			}
			sc.Protocol.LinkSensing = sensing[col%2]
		},
	}
}

// overheadGrid is O1: the original QOLSR plane (MPR-2 advertised sets and
// flooding relays) against each control-plane optimisation and all three.
// Claim: the optimised planes' control bytes grow sublinearly with density,
// the baseline's superlinearly. Delivery is equal only because every plane
// routes through one kernel, whose loops cost probes at δ = 15.
func overheadGrid() liveGrid {
	base := probeBase(10)
	base.Protocol.Selector = "qolsr"
	planes := []string{"mpr2", "mpr2+delta", "mpr2+fisheye", "mpr2+minrelay", "mpr2+delta+fisheye+minrelay"}
	return liveGrid{
		Sweep: Sweep{
			ID: "overhead", Title: "O1 — control overhead vs density per control plane, 60s per run",
			Axis: "density", Points: []float64{5, 10, 15, 20, 30}, Columns: []string{"baseline", "delta", "fisheye", "minrelay", "all"},
			quantities: []quantity{
				{name: "ctlB/s", format: "%.0f", read: controlRate},
				{name: "origB/s", read: func(c cellResult) float64 { return float64(c.Control.TCOriginatedBytes) / c.secs }},
				{name: "fwdB/s", read: func(c cellResult) float64 { return float64(c.Control.TCForwardedBytes) / c.secs }},
				{name: "fwd", format: "%.0f", read: func(c cellResult) float64 { return float64(c.Control.TCForwarded) }},
				{name: "dlv", format: "%.3f", read: probeDelivery},
				{name: "stretch", read: func(c cellResult) float64 {
					var a stats.Accumulator
					for _, s := range c.Samples {
						if s.HopStretch > 0 {
							a.Add(s.HopStretch)
						}
					}
					return a.Mean()
				}},
			},
		},
		runs: 3, base: base, at: atDensity,
		col: func(sc *scenario.Scenario, col int) { sc.Protocol.Plane = planes[col] },
	}
}

// scaleGrid is S1: the full live stack — route rebuilds, flooding, 32
// sustained 16 kB/s CBR flows — on fields of growing node count at constant
// density, reporting how the simulator scales (wall time, events, event
// rate, heap high-water) with delivery as a correctness pulse. Each point
// places exactly its node count, uniformly on a square sized for degree
// scaleDegree.
func scaleGrid(axis ScaleAxis) liveGrid {
	top := axis.Max
	if top <= 0 {
		top = 1000
	}
	var nodes []float64
	for _, n := range []int{50, 100, 250, 500, 1000, 2500, 5000, 10000} {
		if n >= axis.Min && n <= top {
			nodes = append(nodes, float64(n))
		}
	}
	base := scenario.Scenario{
		Traffic:     scenario.Traffic{Mix: []traffic.Spec{{Class: "cbr", Count: 32, RateBps: 16384}}},
		Warmup:      10 * time.Second,
		Duration:    20 * time.Second,
		SampleEvery: 10 * time.Second,
		Obs:         scenario.Obs{Metrics: true},
	}
	if axis.Optimize {
		base.Protocol.Plane = "delta+fisheye+minrelay"
	}
	events := registryValue("qolsr_des_events_executed_total")
	return liveGrid{
		Sweep: Sweep{
			ID: "scale", Title: fmt.Sprintf("S1 — simulator scaling vs node count (degree %d, 32 flows, 10s warmup + 10s traffic)", scaleDegree),
			Axis: "nodes", Points: nodes, Columns: []string{""},
			quantities: []quantity{
				{name: "edges", format: "%.0f", read: func(c cellResult) float64 { return float64(c.Samples[0].Links) }},
				{name: "wall_s", format: "%.2f", read: func(c cellResult) float64 { return c.wall }},
				{name: "events", format: "%.0f", read: events},
				{name: "Mev/s", format: "%.2f", read: func(c cellResult) float64 { return events(c) / c.wall / 1e6 }},
				{name: "heap_hw", format: "%.0f", read: registryValue("qolsr_des_heap_high_water")},
				{name: "dlv", format: "%.3f", read: func(c cellResult) float64 { return c.Traffic.Total.Delivery }},
			},
		},
		runs: 1, serial: true, base: base,
		at: func(sc *scenario.Scenario, x float64, seed int64, run int) {
			// degree ≈ λπR² with λ = n/side², so side = R·sqrt(πn/degree).
			r := rand.New(rand.NewSource(RunSeed(seed, x, run)))
			side := gridRadius * math.Sqrt(math.Pi*x/scaleDegree)
			pts := make([]geom.Point, int(x))
			for i := range pts {
				pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
			}
			sc.Topology = scenario.Topology{Points: pts, Field: geom.Field{Width: side, Height: side}, Radius: gridRadius}
		},
		col: func(*scenario.Scenario, int) {},
	}
}

// probeDelivery is the run's probe delivery: probes delivered over probes
// sent between physically connected ends, pooled over every sample.
func probeDelivery(c cellResult) float64 {
	var delivered, connected int
	for _, s := range c.Samples {
		delivered += s.Delivered
		connected += s.Connected
	}
	if connected == 0 {
		return 1
	}
	return float64(delivered) / float64(connected)
}

// controlRate is the run's HELLO + TC bytes per simulated second.
func controlRate(c cellResult) float64 {
	return float64(c.Control.HelloBytes+c.Control.TCBytes) / c.secs
}

// registryValue reads one metric of the run's registry snapshot.
func registryValue(name string) func(c cellResult) float64 {
	return func(c cellResult) float64 {
		i := slices.IndexFunc(c.Metrics.Metrics, func(m obs.SnapshotMetric) bool { return m.Name == name })
		if i < 0 {
			return math.NaN()
		}
		return c.Metrics.Metrics[i].Value
	}
}

// RunLiveGrid runs the live-stack ablation named name (LiveGridNames)
// under o: its seed, its worker budget and, for a density axis (A4, O1), its
// Degrees. A live run costs about twenty offline ones, so o.Runs = n gives
// the grid n/20 runs a point (at least 1), and none gives the grid's own;
// S1 always runs its own one. o.Progress gets a line per completed axis
// point. The result, one sweep, is bit-identical at every worker count,
// wall times aside. Cancelling ctx stops between simulations and returns
// ctx.Err().
func RunLiveGrid(ctx context.Context, name string, scale ScaleAxis, o Options) (*Result, error) {
	g, err := liveGridByName(name, scale)
	if err != nil {
		return nil, err
	}
	if len(o.Degrees) > 0 && g.Axis == "density" {
		g.Points = o.Degrees
	}
	switch {
	case g.serial:
		o.Runs = g.runs
	case o.Runs > 0:
		o.Runs = max(1, o.Runs/20)
	}
	s, err := g.run(ctx, o.withDefaults(g.runs))
	if err != nil {
		return nil, err
	}
	return &Result{Sweeps: []*Sweep{s}}, nil
}

// run executes the grid on the cell loop. Each cell applies the axis edit,
// then the column edit, to the base and executes it under (seed, run).
func (g liveGrid) run(ctx context.Context, o Options) (*Sweep, error) {
	cells, err := liveSweep[[]stats.Accumulator]{
		points: len(g.Points), runs: o.Runs, cols: len(g.Columns), workers: o.Workers, serial: g.serial,
		point: func(int, int) []stats.Accumulator { return make([]stats.Accumulator, len(g.quantities)) },
		cell: func(pt, run, col int) (func([]stats.Accumulator), error) {
			sc := g.base
			g.at(&sc, g.Points[pt], o.Seed, run)
			g.col(&sc, col)
			start := time.Now()
			rr, err := scenario.Execute(ctx, sc, o.Seed, run, nil)
			if err != nil {
				return nil, fmt.Errorf("eval: %s %s %g column %q run %d: %w", g.ID, g.Axis, g.Points[pt], g.Columns[col], run, err)
			}
			c := cellResult{RunResult: rr, secs: sc.Duration.Seconds(), wall: time.Since(start).Seconds()}
			vals := make([]float64, len(g.quantities))
			for i, q := range g.quantities {
				vals[i] = q.read(c)
			}
			return func(acc []stats.Accumulator) {
				for i, v := range vals {
					if !math.IsNaN(v) {
						acc[i].Add(v)
					}
				}
			}, nil
		},
		done: func(pt int, _ [][]stats.Accumulator) {
			if o.Progress != nil {
				o.Progress("%s %s %g done (%d runs)", g.ID, g.Axis, g.Points[pt], o.Runs)
			}
		},
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	s := g.Sweep
	s.Runs, s.Seed, s.cells = o.Runs, o.Seed, cells
	return &s, nil
}
