package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
	"qolsr/internal/netgen"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
	"qolsr/internal/traffic"
)

// The node-count scaling sweep (experiment S1): run the full live stack —
// deterministic event core, route rebuilds, MPR flooding, sustained CBR
// traffic — on fields of growing node count at constant density, and report
// how the simulator itself scales: wall-clock time, events executed, and
// event throughput per point, alongside the delivery ratio as a correctness
// pulse. Unlike the density sweeps (which grow degree on a fixed field),
// the field area grows with N so the mean degree stays put and the axis
// isolates population size.

// ScaleSweepOptions configures the S1 experiment.
type ScaleSweepOptions struct {
	// Nodes is the node-count axis (default: the standard axis {50, 100,
	// 250, 500, 1000, 2500, 5000, 10000} cut at MaxNodes). Each point
	// deploys exactly that many nodes — the field is sized for constant
	// density, so ~10 mean degree at every N.
	Nodes []int
	// MaxNodes caps the default axis (default 1000; ignored when Nodes is
	// set explicitly). The points past 1000 are where the control-plane
	// optimisations earn their keep — raise the cap to reach them.
	MaxNodes int
	// MinNodes cuts the default axis from below (ignored when Nodes is set
	// explicitly): points smaller than it are skipped, so a big-field
	// measurement need not re-run the whole ladder beneath it.
	MinNodes int
	// Optimize runs the control plane with every scaling optimisation on:
	// delta-encoded TCs, the default fish-eye schedule, and min-cover
	// flood relays.
	Optimize bool
	// Flows is the number of concurrent CBR flows at every point, each
	// offering 16 kB/s (a fixed offered load, so the axis measures core
	// scaling, not traffic scaling; default 32).
	Flows int
	// Warmup is the protocol convergence time before flows start
	// (default 10s).
	Warmup time.Duration
	// SimTime is the traffic duration after warmup (default 10s).
	SimTime time.Duration
	// Runs is the number of independent fields per point (default 1 —
	// the big points are the expensive part and the quantities of
	// interest are throughput, not protocol statistics).
	Runs int
	// Workers bounds the goroutines the post-warmup route-rebuild barrier
	// fans the flow sources' SPF work across (0 = GOMAXPROCS, 1 =
	// serial). S1's grid simulates one field at a time, so each wall time
	// is its own. Wall-clock only: results are bit-identical at every
	// setting.
	Workers int
	// Seed derives field, protocol and flow randomness.
	Seed int64
}

// The S1 constants: the target mean degree at every node count and the
// per-flow offered load.
const (
	scaleDegree  = 10
	scaleRateBps = 16384
)

// ScalePoint is one node-count measurement.
type ScalePoint struct {
	Nodes int
	// Edges is the realized physical edge count.
	Edges stats.Accumulator
	// WallSeconds is the wall-clock time of the whole point: protocol
	// start, warmup, and the traffic phase.
	WallSeconds stats.Accumulator
	// Events is the number of discrete events the engine executed.
	Events stats.Accumulator
	// EventsPerSec is Events over wall time — the engine's realized
	// throughput at this scale.
	EventsPerSec stats.Accumulator
	// HeapHighWater is the deepest the engine's timed heap got — the
	// event-core memory axis the throughput numbers alone hide (a point can
	// stay fast while its pending set balloons).
	HeapHighWater stats.Accumulator
	// Delivery is the traffic mix's packet delivery ratio.
	Delivery stats.Accumulator
}

// ScaleSweepResult is the outcome of RunScaleSweep.
type ScaleSweepResult struct {
	Options ScaleSweepOptions
	// Points is indexed by the Nodes axis.
	Points []*ScalePoint
}

// RunScaleSweep measures simulator throughput against node count on the
// live stack. Cancelling ctx stops between simulations and returns
// ctx.Err().
func RunScaleSweep(ctx context.Context, opts ScaleSweepOptions) (*ScaleSweepResult, error) {
	if len(opts.Nodes) == 0 {
		max := opts.MaxNodes
		if max <= 0 {
			max = 1000
		}
		for _, n := range []int{50, 100, 250, 500, 1000, 2500, 5000, 10000} {
			if n >= opts.MinNodes && n <= max {
				opts.Nodes = append(opts.Nodes, n)
			}
		}
	}
	defaultTo(&opts.Flows, 32)
	defaultTo(&opts.Warmup, 10*time.Second)
	defaultTo(&opts.SimTime, 10*time.Second)
	defaultTo(&opts.Runs, 1)
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	// One field at a time (workers 1), so each wall time is its own;
	// opts.Workers goes to the rebuild barrier inside the simulation.
	points, err := liveSweep[*ScalePoint]{
		points: len(opts.Nodes), runs: opts.Runs, cols: 1, workers: 1,
		point: func(pt, _ int) *ScalePoint { return &ScalePoint{Nodes: opts.Nodes[pt]} },
		cell: func(_ liveField, pt, run, _ int) (func(*ScalePoint), error) {
			return runScaleCell(opts.Nodes[pt], run, opts)
		},
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	res := &ScaleSweepResult{Options: opts}
	for _, row := range points {
		res.Points = append(res.Points, row[0])
	}
	return res, nil
}

// runScaleCell executes one (node count, run) simulation and returns the
// step that folds its measurements into the point.
func runScaleCell(n, run int, opts ScaleSweepOptions) (func(*ScalePoint), error) {
	fieldSeed := RunSeed(opts.Seed, float64(n), run)
	fieldRNG := rand.New(rand.NewSource(fieldSeed))
	// Size the square field so a uniform drop of exactly n nodes hits the
	// target density: degree ≈ λπR² with λ = n/area, so side =
	// R·sqrt(πn/degree). Sampling exactly n (instead of a Poisson draw)
	// keeps the axis label honest — a 1000-node point has 1000 nodes.
	side := liveRadius * math.Sqrt(math.Pi*float64(n)/scaleDegree)
	field := geom.Field{Width: side, Height: side}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: fieldRNG.Float64() * side, Y: fieldRNG.Float64() * side}
	}
	g, err := netgen.FromPoints(field, liveRadius, pts, "bandwidth", metric.DefaultInterval(), fieldRNG)
	if err != nil {
		return nil, err
	}
	pairs := sim.DrawPairs(g.N(), opts.Flows, int64(rng.Mix(uint64(fieldSeed), 0x5CA1E)))

	cfg := olsr.DefaultConfig(metric.Bandwidth())
	if opts.Optimize {
		cfg.DeltaTC = true
		cfg.FisheyeTTLs = olsr.DefaultFisheyeTTLs()
		cfg.FloodRelay = mpr.MinCover
	}
	nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: RunSeed(fieldSeed, float64(n), run)})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	nw.Start()
	nw.Run(opts.Warmup)
	// Rebuild barrier: the converged field's flow sources all need fresh
	// routing tables before the first packet; fan that SPF work across the
	// worker budget instead of paying it serially inside the event loop.
	// Results are bit-identical at every worker count.
	if _, err := nw.RebuildRoutes(flowSources(pairs), opts.Workers); err != nil {
		return nil, err
	}
	eng := traffic.NewEngine(nw, int64(rng.Mix(uint64(fieldSeed), 0x5CA1E, uint64(run))))
	for i, pr := range pairs {
		if err := eng.Add(traffic.Flow{
			ID:          i,
			Class:       traffic.ClassCBR,
			Src:         pr[0],
			Dst:         pr[1],
			RateBps:     scaleRateBps,
			PacketBytes: traffic.DefaultPacketBytes,
			Start:       opts.Warmup,
		}); err != nil {
			return nil, err
		}
	}
	stop := opts.Warmup + opts.SimTime
	if err := eng.Start(stop); err != nil {
		return nil, err
	}
	nw.Run(stop)
	wall := time.Since(start).Seconds()

	dlv := eng.Report().Total.Delivery
	events := float64(nw.Engine.Executed)
	edges, heap := float64(g.M()), float64(nw.Engine.HeapHighWater)
	return func(p *ScalePoint) {
		p.Edges.Add(edges)
		p.WallSeconds.Add(wall)
		p.Events.Add(events)
		if wall > 0 {
			p.EventsPerSec.Add(events / wall)
		}
		p.HeapHighWater.Add(heap)
		p.Delivery.Add(dlv)
	}, nil
}

// flowSources returns the unique flow sources in ascending index order.
func flowSources(pairs [][2]int32) []int32 {
	seen := make(map[int32]bool, len(pairs))
	out := make([]int32, 0, len(pairs))
	for _, p := range pairs {
		if !seen[p[0]] {
			seen[p[0]] = true
			out = append(out, p[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteTable renders the sweep as an aligned table.
func (r *ScaleSweepResult) WriteTable(w io.Writer) error {
	title := fmt.Sprintf("S1 — simulator scaling vs node count (degree %d, %d flows, %v warmup + %v traffic, %d runs/point)",
		scaleDegree, r.Options.Flows, r.Options.Warmup, r.Options.SimTime, r.Options.Runs)
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.0f", p.Edges.Mean()),
			fmt.Sprintf("%.2f", p.WallSeconds.Mean()),
			fmt.Sprintf("%.0f", p.Events.Mean()),
			fmt.Sprintf("%.2f", p.EventsPerSec.Mean()/1e6),
			fmt.Sprintf("%.0f", p.HeapHighWater.Mean()),
			fmt.Sprintf("%.3f", p.Delivery.Mean()),
		}
	}
	return writeTable(w, title, []string{"nodes", "edges", "wall_s", "events", "Mev/s", "heap_hw", "dlv"}, rows)
}
