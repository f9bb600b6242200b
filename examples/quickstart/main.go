// Quickstart: build a random sensor field, run the paper's FNBP selection
// at one node, route a packet over the advertised topology, then sweep a
// miniature density experiment as a streaming sweep on a Runner.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"qolsr"
)

func main() {
	// 1. Deploy a sensor field the way the paper does: Poisson point
	//    process, unit-disk links, uniform QoS weights.
	rng := rand.New(rand.NewSource(7))
	dep := qolsr.Deployment{
		Field:  qolsr.Field{Width: 500, Height: 500},
		Radius: 100,
		Degree: 10, // target mean neighbors per node
	}
	m := qolsr.Bandwidth()
	g, err := qolsr.BuildNetwork(dep, m.Name(), qolsr.DefaultInterval(), rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %d nodes with %d links\n", g.N(), g.M())

	// 2. Run FNBP at node 0: which neighbors should it advertise so that
	//    bandwidth-optimal paths survive?
	w, err := g.Weights(m.Name())
	if err != nil {
		log.Fatal(err)
	}
	view := qolsr.NewLocalView(g, 0)
	sel, err := qolsr.FNBP{}.SelectFull(view, m, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 0 has %d one-hop and %d two-hop neighbors\n", len(view.N1), len(view.N2))
	fmt.Printf("FNBP advertises only %d of them: %v\n", len(sel.ANS), sel.ANS)

	// 3. Run the selection at every node and build the network-wide
	//    advertised topology.
	sets := make([][]int32, g.N())
	var total int
	for u := int32(0); int(u) < g.N(); u++ {
		ans, err := (qolsr.FNBP{}).Select(qolsr.NewLocalView(g, u), m, w)
		if err != nil {
			log.Fatal(err)
		}
		sets[u] = ans
		total += len(ans)
	}
	fmt.Printf("network-wide: %.2f advertised neighbors per node\n", float64(total)/float64(g.N()))

	adv, err := qolsr.BuildAdvertised(g, sets, m.Name())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advertised topology: %d of %d physical links\n", adv.M(), g.M())

	// 4. Route a random connected pair and compare with the centralized
	//    optimum (the paper's overhead metric).
	src, dst, err := qolsr.PickConnectedPair(g, rng, 64)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := qolsr.EvaluatePair(g, adv, m, m.Name(), src, dst, qolsr.QoSOptimal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route %d -> %d: bandwidth %.1f over %d hops (optimum %.1f, overhead %.1f%%)\n",
		src, dst, ev.Achieved, ev.Hops, ev.Optimal, 100*ev.Overhead)

	// 5. The same comparison across densities, through the Runner: a
	//    reduced Fig. 6 whose points stream in as they complete.
	fig, err := qolsr.FigureByID("fig6")
	if err != nil {
		log.Fatal(err)
	}
	r := qolsr.NewRunner(qolsr.WithRuns(3), qolsr.WithSeed(7), qolsr.WithDegrees(8, 12))
	events, wait := r.Stream(context.Background(), fig)
	for ev := range events {
		if ev.Kind == qolsr.EventPoint {
			s, pi := ev.Sweep, ev.PointIndex
			fmt.Printf("density %g: fnbp advertises %.2f neighbors/node\n",
				s.Points[pi], s.Cell(pi, "fnbp", qolsr.QuantitySetSize).Mean())
		}
	}
	if _, err := wait(); err != nil {
		log.Fatal(err)
	}
}
