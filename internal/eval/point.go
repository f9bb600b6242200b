package eval

import (
	"context"
	"fmt"
	"math/rand"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/par"
	"qolsr/internal/route"
	"qolsr/internal/stats"
)

// Scenario describes one density point of the paper's evaluation.
type Scenario struct {
	// Deployment is the Poisson deployment (field, radius, degree).
	Deployment geom.Deployment
	// Metric is the QoS metric under study.
	Metric metric.Metric
	// WeightInterval is the uniform law of link weights.
	WeightInterval metric.Interval
	// Runs is the number of independent topologies (the paper uses 100).
	Runs int
	// Seed derives each run's RNG stream via RunSeed(Seed, Degree, run),
	// which is what makes all protocols see identical topologies and
	// pairs while keeping streams independent across runs and densities.
	Seed int64
	// Workers bounds run-level parallelism: the runs go through par.For
	// on min(Workers, Runs) goroutines, or inline on the caller's when
	// that is one (default GOMAXPROCS).
	Workers int
	// MeasureDirectedDelivery additionally evaluates the all-pairs
	// delivery ratio under directed-advertisement semantics (the Fig. 4
	// reachability model; ablation A1). Quadratic in node count — meant
	// for moderate densities.
	MeasureDirectedDelivery bool
}

// ProtocolPoint aggregates one protocol's behaviour at one density.
type ProtocolPoint struct {
	// SetSize is the per-node advertised-set size (Figs. 6-7 quantity).
	SetSize stats.Accumulator
	// Overhead is the per-pair relative regret vs the centralized
	// optimum, over delivered pairs (Figs. 8-9 quantity).
	Overhead stats.Accumulator
	// Delivery is the per-pair delivery indicator (1 delivered, 0 not).
	Delivery stats.Accumulator
	// Hops is the used path length over delivered pairs.
	Hops stats.Accumulator
	// DirectedDelivery is the all-pairs delivery ratio under the
	// directed-advertisement model (only populated when the scenario
	// requests it).
	DirectedDelivery stats.Accumulator
}

// PointResult is the outcome of one density point for every protocol.
type PointResult struct {
	Degree    float64
	Nodes     stats.Accumulator // realised node counts per run
	Protocols map[string]*ProtocolPoint
	// SkippedRuns counts runs without a usable connected pair (sparse
	// densities); their topologies still contribute set sizes.
	SkippedRuns int
}

// runSample is one run's contribution, merged deterministically.
type runSample struct {
	nodes    float64
	skipped  bool
	setSize  []stats.Accumulator
	overhead []stats.Accumulator
	delivery []stats.Accumulator
	hops     []stats.Accumulator
	directed []stats.Accumulator
	err      error
}

// RunPoint evaluates every protocol on Runs independent topologies at the
// scenario's density. All protocols within a run share the topology, the
// link weights and the (source, destination) pair, mirroring the paper's
// "each approach is run on the same topology with the same source and
// destination".
//
// Cancelling ctx stops dispatching runs and returns ctx.Err(). A failing
// run stops dispatch too; the error reported is the lowest failing run's.
// Results are bit-identical for a given scenario regardless of Workers:
// every run draws its RNG stream from RunSeed and samples are merged in run
// order.
func RunPoint(ctx context.Context, sc Scenario, protocols []ProtocolSpec) (*PointResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sc.Runs <= 0 {
		return nil, fmt.Errorf("eval: Runs must be positive, got %d", sc.Runs)
	}
	if err := sc.Deployment.Validate(); err != nil {
		return nil, err
	}
	if err := sc.WeightInterval.Validate(); err != nil {
		return nil, err
	}
	samples := make([]runSample, sc.Runs)
	if err := par.For(ctx, sc.Runs, sc.Workers, func(_ context.Context, run int) error {
		samples[run] = evalRun(sc, protocols, run)
		if err := samples[run].err; err != nil {
			return fmt.Errorf("eval: run %d: %w", run, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	res := &PointResult{
		Degree:    sc.Deployment.Degree,
		Protocols: make(map[string]*ProtocolPoint, len(protocols)),
	}
	for _, p := range protocols {
		res.Protocols[p.Name] = &ProtocolPoint{}
	}
	for run := range samples {
		s := &samples[run]
		res.Nodes.Add(s.nodes)
		if s.skipped {
			res.SkippedRuns++
		}
		for i, p := range protocols {
			pp := res.Protocols[p.Name]
			pp.SetSize.Merge(&s.setSize[i])
			pp.Overhead.Merge(&s.overhead[i])
			pp.Delivery.Merge(&s.delivery[i])
			pp.Hops.Merge(&s.hops[i])
			pp.DirectedDelivery.Merge(&s.directed[i])
		}
	}
	return res, nil
}

// pairTries bounds source resampling when hunting for a connected pair.
const pairTries = 64

func evalRun(sc Scenario, protocols []ProtocolSpec, run int) runSample {
	s := runSample{
		setSize:  make([]stats.Accumulator, len(protocols)),
		overhead: make([]stats.Accumulator, len(protocols)),
		delivery: make([]stats.Accumulator, len(protocols)),
		hops:     make([]stats.Accumulator, len(protocols)),
		directed: make([]stats.Accumulator, len(protocols)),
	}
	rng := rand.New(rand.NewSource(RunSeed(sc.Seed, sc.Deployment.Degree, run)))
	channel := sc.Metric.Name()
	g, err := netgen.Build(sc.Deployment, channel, sc.WeightInterval, rng)
	if err != nil {
		s.err = err
		return s
	}
	s.nodes = float64(g.N())
	w, err := g.Weights(channel)
	if err != nil {
		s.err = err
		return s
	}

	// Per-node selections, shared state across protocols via the view.
	sets := make([][][]int32, len(protocols)) // protocol -> node -> set
	for i := range sets {
		sets[i] = make([][]int32, g.N())
	}
	for u := int32(0); int(u) < g.N(); u++ {
		view := graph.NewLocalView(g, u)
		for i, p := range protocols {
			set, err := p.Selector.Select(view, sc.Metric, w)
			if err != nil {
				s.err = fmt.Errorf("%s at node %d: %w", p.Name, u, err)
				return s
			}
			sets[i][u] = set
			s.setSize[i].Add(float64(len(set)))
		}
	}

	if sc.MeasureDirectedDelivery {
		for i := range protocols {
			d, err := route.BuildDirectedAdvertised(g, sets[i])
			if err != nil {
				s.err = fmt.Errorf("%s: %w", protocols[i].Name, err)
				return s
			}
			s.directed[i].Add(d.DeliveryRatio())
		}
	}

	src, dst, err := netgen.PickConnectedPair(g, rng, pairTries)
	if err != nil {
		// Sparse run without a usable pair: keep the set sizes, skip
		// the routing measurement.
		s.skipped = true
		return s
	}

	for i, p := range protocols {
		adv, err := route.BuildAdvertised(g, sets[i], channel)
		if err != nil {
			s.err = fmt.Errorf("%s: %w", p.Name, err)
			return s
		}
		// Local-delivery rule: the destination's own links are always
		// usable as the last hop — its neighbors know them from HELLO
		// exchange even when nobody advertises them in TCs (a leaf
		// behind a direct-optimal link is advertised by no one, yet
		// OLSR delivers to it). Without this, delivery failures would
		// be an artifact of the advertised-graph abstraction rather
		// than of the selection algorithms.
		adv, err = route.WithLocalLinks(adv, g, channel, dst)
		if err != nil {
			s.err = fmt.Errorf("%s: %w", p.Name, err)
			return s
		}
		if p.LocalLinks {
			adv, err = route.WithLocalLinks(adv, g, channel, src)
			if err != nil {
				s.err = fmt.Errorf("%s: %w", p.Name, err)
				return s
			}
		}
		ev, err := route.EvaluatePair(g, adv, sc.Metric, channel, src, dst, p.Policy)
		if err != nil {
			s.err = fmt.Errorf("%s: %w", p.Name, err)
			return s
		}
		if ev.Delivered {
			s.delivery[i].Add(1)
			s.overhead[i].Add(ev.Overhead)
			s.hops[i].Add(float64(ev.Hops))
		} else {
			s.delivery[i].Add(0)
		}
	}
	return s
}
