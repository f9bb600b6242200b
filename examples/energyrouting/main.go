// Energyrouting implements the paper's future-work section (Sec. V):
// "multi-criterion metrics, for example minimizing energy-consumption while
// providing good bandwidth."
//
// Links carry both a bandwidth and an energy weight (transmission energy
// grows with distance). FNBP runs under a lexicographic cost — maximize
// bandwidth first, break ties by minimal energy — and the example compares
// the energy bill of the advertised routes against plain bandwidth-only
// FNBP over many field realisations.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"qolsr"
)

const (
	runs   = 15
	degree = 12
	radius = 100.0
)

func main() {
	lex := qolsr.Lexicographic{
		PrimaryMetric:   qolsr.Bandwidth(),
		SecondaryMetric: qolsr.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}

	var bwOnlySize, lexSize float64
	var plainBW, lexBW, plainEnergy, lexEnergy float64
	var nodes, pairs int
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(int64(run) + 5))
		g := buildField(rng)
		w, err := g.Weights("bandwidth")
		if err != nil {
			log.Fatal(err)
		}

		plainSets := make([][]int32, g.N())
		lexSets := make([][]int32, g.N())
		for u := int32(0); int(u) < g.N(); u++ {
			view := qolsr.NewLocalView(g, u)
			plainSets[u], err = (qolsr.FNBP{}).Select(view, qolsr.Bandwidth(), w)
			if err != nil {
				log.Fatal(err)
			}
			lexSets[u], err = qolsr.SelectFNBPLex(view, lex, qolsr.LoopFixLiteral)
			if err != nil {
				log.Fatal(err)
			}
			bwOnlySize += float64(len(plainSets[u]))
			lexSize += float64(len(lexSets[u]))
			nodes++
		}

		// Route random pairs over each advertised topology, always
		// picking the widest-then-cheapest path available in it.
		advPlain := advertise(g, plainSets)
		advLex := advertise(g, lexSets)
		for p := 0; p < 20; p++ {
			src, dst, err := qolsr.PickConnectedPair(g, rng, 64)
			if err != nil {
				break
			}
			cp, okP := lexRoute(advPlain, lex, src, dst)
			cl, okL := lexRoute(advLex, lex, src, dst)
			if !okP || !okL {
				continue
			}
			pairs++
			plainBW += cp.Primary
			lexBW += cl.Primary
			plainEnergy += cp.Secondary
			lexEnergy += cl.Secondary
		}
	}

	fmt.Printf("fields: %d, nodes: %d, routed pairs: %d (target degree %d)\n", runs, nodes, pairs, degree)
	fmt.Printf("bandwidth-only FNBP:   %.2f advertised links/node\n", bwOnlySize/float64(nodes))
	fmt.Printf("bandwidth+energy FNBP: %.2f advertised links/node\n", lexSize/float64(nodes))
	n := float64(pairs)
	fmt.Printf("routes over bandwidth-only topology:   bandwidth %.2f, energy %.2f\n", plainBW/n, plainEnergy/n)
	fmt.Printf("routes over bandwidth+energy topology: bandwidth %.2f, energy %.2f\n", lexBW/n, lexEnergy/n)
	fmt.Printf("route energy saved at matched bandwidth: %.1f%%\n", 100*(1-lexEnergy/plainEnergy))
}

// advertise materialises a selection's advertised topology, copying both
// weight channels.
func advertise(g *qolsr.Graph, sets [][]int32) *qolsr.Graph {
	adv, err := qolsr.BuildAdvertised(g, sets, "bandwidth")
	if err != nil {
		log.Fatal(err)
	}
	en, err := g.Weights("energy")
	if err != nil {
		log.Fatal(err)
	}
	for e := 0; e < adv.M(); e++ {
		a, b := adv.EdgeEndpoints(e)
		pe, ok := g.EdgeBetween(a, b)
		if !ok {
			log.Fatal("advertised link without physical edge")
		}
		if err := adv.SetWeight("energy", e, en[pe]); err != nil {
			log.Fatal(err)
		}
	}
	return adv
}

// lexRoute returns the widest-then-cheapest path cost from src to dst in g.
func lexRoute(g *qolsr.Graph, lex qolsr.Lexicographic, src, dst int32) (qolsr.LexCost, bool) {
	gs, err := qolsr.DijkstraLex(g, lex, src, nil, -1)
	if err != nil {
		log.Fatal(err)
	}
	if !gs.Reached[dst] {
		return qolsr.LexCost{}, false
	}
	return gs.Cost[dst], true
}

// buildField deploys a field where each link carries a bandwidth weight
// (uniform, as in the paper) and a transmission-energy weight following the
// classic distance-power law e = (d/R)^2 + 0.1. Link lengths are drawn from
// the unit-disk length distribution (r ~ R·sqrt(U)).
func buildField(rng *rand.Rand) *qolsr.Graph {
	dep := qolsr.Deployment{
		Field:  qolsr.Field{Width: 500, Height: 500},
		Radius: radius,
		Degree: degree,
	}
	g, err := qolsr.BuildNetwork(dep, "bandwidth", qolsr.DefaultInterval(), rng)
	if err != nil {
		log.Fatal(err)
	}
	for e := 0; e < g.M(); e++ {
		d := radius * math.Sqrt(rng.Float64())
		if err := g.SetWeight("energy", e, (d/radius)*(d/radius)+0.1); err != nil {
			log.Fatal(err)
		}
	}
	return g
}
