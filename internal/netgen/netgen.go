// Package netgen turns deployments into weighted network graphs: it samples
// the paper's Poisson point process, extracts unit-disk links, draws uniform
// link weights, and picks the random connected source/destination pairs the
// evaluation routes between.
package netgen

import (
	"fmt"
	"math/rand"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// Build samples one network realisation: node positions from the
// deployment, unit-disk links at the deployment radius, and i.i.d. uniform
// weights from iv on the named channel.
func Build(dep geom.Deployment, channel string, iv metric.Interval, rng *rand.Rand) (*graph.Graph, error) {
	pts, err := dep.Sample(rng)
	if err != nil {
		return nil, err
	}
	return FromPoints(dep.Field, dep.Radius, pts, channel, iv, rng)
}

// FromPoints builds the unit-disk graph of fixed positions with uniform
// weights from iv on the named channel.
func FromPoints(field geom.Field, radius float64, pts []geom.Point, channel string, iv metric.Interval, rng *rand.Rand) (*graph.Graph, error) {
	links, err := geom.Links(field, radius, pts)
	if err != nil {
		return nil, err
	}
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	w := make([]float64, len(links))
	for e := range w {
		w[e] = iv.Draw(rng)
	}
	return graph.FromEdges(graph.IndexIDs(len(pts)), links, channel, w), nil
}

// PickConnectedPair draws a uniformly random source and a uniformly random
// destination among the nodes reachable from it, resampling sources up to
// maxTries times — the paper's simulator routes between randomly chosen
// connected nodes. It fails when the graph has no connected pair within the
// attempt budget (e.g. at very low density).
func PickConnectedPair(g *graph.Graph, rng *rand.Rand, maxTries int) (src, dst int32, err error) {
	if g.N() < 2 {
		return 0, 0, fmt.Errorf("netgen: need at least 2 nodes, have %d", g.N())
	}
	for try := 0; try < maxTries; try++ {
		s := int32(rng.Intn(g.N()))
		reach := graph.Reachable(g, s)
		candidates := make([]int32, 0, g.N())
		for x, ok := range reach {
			if ok && int32(x) != s {
				candidates = append(candidates, int32(x))
			}
		}
		if len(candidates) == 0 {
			continue
		}
		return s, candidates[rng.Intn(len(candidates))], nil
	}
	return 0, 0, fmt.Errorf("netgen: no connected pair found in %d tries", maxTries)
}
