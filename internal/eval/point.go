package eval

import (
	"fmt"
	"math/rand"
	"slices"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/route"
	"qolsr/internal/stats"
)

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
// point, whose cell is one evalRun, merged into the point's row — one
// accumulator per (protocol, figureSeries quantity) — in run order. Every
// run draws its RNG stream from RunSeed and runs fold in run order, so a
// point is bit-identical at every worker count. All protocols within a run
// share the topology, the link weights and the (source, destination) pair,
// mirroring the paper's "each approach is run on the same topology with
// the same source and destination".
func pointSweep(specs []pointSpec, runs, workers int, done func(pt int, row [][][]stats.Accumulator)) liveSweep[[][]stats.Accumulator] {
	return liveSweep[[][]stats.Accumulator]{
		points: len(specs), runs: runs, cols: 1, workers: workers,
		point: func(pt, _ int) [][]stats.Accumulator { return newRow(specs[pt]) },
		cell: func(pt, run, _ int) (func([][]stats.Accumulator), error) {
			s, err := evalRun(specs[pt], run)
			if err != nil {
				return nil, fmt.Errorf("eval: density %g run %d: %w", specs[pt].deployment.Degree, run, err)
			}
			return func(row [][]stats.Accumulator) {
				for i := range row {
					for q := range row[i] {
						row[i][q].Merge(&s[i][q])
					}
				}
			}, nil
		},
		done: done,
	}
}

// newRow returns empty accumulators for every (protocol, series) of the
// point.
func newRow(spec pointSpec) [][]stats.Accumulator {
	row := make([][]stats.Accumulator, len(spec.protocols))
	for i := range row {
		row[i] = make([]stats.Accumulator, len(figureSeries(spec.directed)))
	}
	return row
}

// pairTries bounds source resampling when hunting for a connected pair.
const pairTries = 64

// evalRun evaluates every protocol on one topology of the point: per
// protocol, one accumulator per figureSeries quantity.
func evalRun(spec pointSpec, run int) ([][]stats.Accumulator, error) {
	protocols, series := spec.protocols, figureSeries(spec.directed)
	s := newRow(spec)
	at := func(q Quantity) int { return slices.Index(series, q) }
	addAll := func(q Quantity, v float64) {
		for i := range s {
			s[i][at(q)].Add(v)
		}
	}
	rng := rand.New(rand.NewSource(RunSeed(spec.seed, spec.deployment.Degree, run)))
	channel := spec.metric.Name()
	g, err := netgen.Build(spec.deployment, channel, metric.DefaultInterval(), rng)
	if err != nil {
		return nil, err
	}
	addAll(quantityNodes, float64(g.N()))
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
			s[i][at(QuantitySetSize)].Add(float64(len(set)))
		}
	}

	if spec.directed {
		for i := range protocols {
			d, err := route.BuildDirectedAdvertised(g, sets[i])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", protocols[i].Name, err)
			}
			s[i][at(QuantityDirectedDelivery)].Add(d.DeliveryRatio())
		}
	}

	src, dst, err := netgen.PickConnectedPair(g, rng, pairTries)
	if err != nil {
		// Sparse run without a usable pair: keep the set sizes, skip
		// the routing measurement.
		addAll(quantitySkipped, 1)
		return s, nil
	}
	addAll(quantitySkipped, 0)

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
			s[i][at(QuantityDelivery)].Add(1)
			s[i][at(QuantityOverhead)].Add(ev.Overhead)
			s[i][at(quantityHops)].Add(float64(ev.Hops))
		} else {
			s[i][at(QuantityDelivery)].Add(0)
		}
	}
	return s, nil
}
