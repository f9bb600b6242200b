package eval

import (
	"fmt"
	"math/rand"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/route"
	"qolsr/internal/stats"
)

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
	// directed-advertisement model (only populated for a figure whose
	// quantity it is).
	DirectedDelivery stats.Accumulator
}

// Series returns the accumulator of quantity q, or nil for a quantity the
// point does not measure.
func (pp *ProtocolPoint) Series(q Quantity) *stats.Accumulator {
	switch q {
	case QuantitySetSize:
		return &pp.SetSize
	case QuantityOverhead:
		return &pp.Overhead
	case QuantityDelivery:
		return &pp.Delivery
	case QuantityDirectedDelivery:
		return &pp.DirectedDelivery
	}
	return nil
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

// pointSpec is one density point of the figure grid: the deployment, the
// metric, the base seed and the compared protocols. Two figures whose specs
// are deeply equal share the point.
type pointSpec struct {
	deployment geom.Deployment
	metric     metric.Metric
	// seed derives each run's RNG stream via RunSeed(seed, degree, run),
	// which is what makes all protocols see identical topologies and
	// pairs while keeping streams independent across runs and densities.
	seed int64
	// directed additionally evaluates the all-pairs delivery ratio under
	// directed-advertisement semantics (the Fig. 4 reachability model;
	// ablation A1). Quadratic in node count — meant for moderate
	// densities.
	directed  bool
	protocols []ProtocolSpec
}

// pointSweep lays density points out on the cell loop: one column per
// point, whose cell is one evalRun, folded into the point in run order.
// Every run draws its RNG stream from RunSeed and runs fold in run order, so
// a point is bit-identical at every worker count. All protocols within a
// run share the topology, the link weights and the (source, destination)
// pair, mirroring the paper's "each approach is run on the same topology
// with the same source and destination".
func pointSweep(specs []pointSpec, runs, workers int, done func(pt int, row []*PointResult)) liveSweep[*PointResult] {
	return liveSweep[*PointResult]{
		points: len(specs), runs: runs, cols: 1, workers: workers,
		point: func(pt, _ int) *PointResult {
			res := &PointResult{Degree: specs[pt].deployment.Degree, Protocols: map[string]*ProtocolPoint{}}
			for _, p := range specs[pt].protocols {
				res.Protocols[p.Name] = &ProtocolPoint{}
			}
			return res
		},
		cell: func(pt, run, _ int) (func(*PointResult), error) {
			s, err := evalRun(specs[pt], run)
			if err != nil {
				return nil, fmt.Errorf("eval: density %g run %d: %w", specs[pt].deployment.Degree, run, err)
			}
			return func(res *PointResult) { s.mergeInto(res, specs[pt].protocols) }, nil
		},
		done: done,
	}
}

// runSample is one run's contribution, merged deterministically.
type runSample struct {
	nodes     float64
	skipped   bool
	protocols []ProtocolPoint
}

// mergeInto folds the run into the point, one accumulator Merge per series.
func (s *runSample) mergeInto(res *PointResult, protocols []ProtocolSpec) {
	res.Nodes.Add(s.nodes)
	if s.skipped {
		res.SkippedRuns++
	}
	for i, p := range protocols {
		pp, r := res.Protocols[p.Name], &s.protocols[i]
		pp.SetSize.Merge(&r.SetSize)
		pp.Overhead.Merge(&r.Overhead)
		pp.Delivery.Merge(&r.Delivery)
		pp.Hops.Merge(&r.Hops)
		pp.DirectedDelivery.Merge(&r.DirectedDelivery)
	}
}

// pairTries bounds source resampling when hunting for a connected pair.
const pairTries = 64

// evalRun evaluates every protocol on one topology of the point.
func evalRun(spec pointSpec, run int) (*runSample, error) {
	protocols := spec.protocols
	s := &runSample{protocols: make([]ProtocolPoint, len(protocols))}
	rng := rand.New(rand.NewSource(RunSeed(spec.seed, spec.deployment.Degree, run)))
	channel := spec.metric.Name()
	g, err := netgen.Build(spec.deployment, channel, metric.DefaultInterval(), rng)
	if err != nil {
		return nil, err
	}
	s.nodes = float64(g.N())
	w, err := g.Weights(channel)
	if err != nil {
		return nil, err
	}

	// Per-node selections, shared state across protocols via the view.
	sets := make([][][]int32, len(protocols)) // protocol -> node -> set
	for i := range sets {
		sets[i] = make([][]int32, g.N())
	}
	for u := int32(0); int(u) < g.N(); u++ {
		view := graph.NewLocalView(g, u)
		for i, p := range protocols {
			set, err := p.Selector.Select(view, spec.metric, w)
			if err != nil {
				return nil, fmt.Errorf("%s at node %d: %w", p.Name, u, err)
			}
			sets[i][u] = set
			s.protocols[i].SetSize.Add(float64(len(set)))
		}
	}

	if spec.directed {
		for i := range protocols {
			d, err := route.BuildDirectedAdvertised(g, sets[i])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", protocols[i].Name, err)
			}
			s.protocols[i].DirectedDelivery.Add(d.DeliveryRatio())
		}
	}

	src, dst, err := netgen.PickConnectedPair(g, rng, pairTries)
	if err != nil {
		// Sparse run without a usable pair: keep the set sizes, skip
		// the routing measurement.
		s.skipped = true
		return s, nil
	}

	for i, p := range protocols {
		adv, err := route.BuildAdvertised(g, sets[i], channel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
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
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		if p.LocalLinks {
			adv, err = route.WithLocalLinks(adv, g, channel, src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		ev, err := route.EvaluatePair(g, adv, spec.metric, channel, src, dst, p.Policy)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		if ev.Delivered {
			s.protocols[i].Delivery.Add(1)
			s.protocols[i].Overhead.Add(ev.Overhead)
			s.protocols[i].Hops.Add(float64(ev.Hops))
		} else {
			s.protocols[i].Delivery.Add(0)
		}
	}
	return s, nil
}
