package qolsr_test

import (
	"fmt"
	"log"

	"qolsr"
)

// ExampleFNBP_Select demonstrates the paper's selection on a small network:
// node 0's direct link to node 2 is narrow, so FNBP advertises node 1, the
// first hop of the wide detour.
func ExampleFNBP_Select() {
	g := qolsr.NewGraph(4)
	links := []struct {
		a, b int32
		bw   float64
	}{
		{0, 1, 9}, // u - a : wide
		{1, 2, 9}, // a - v : wide
		{0, 2, 2}, // u - v : narrow direct link
		{2, 3, 5}, // v - t : t is a 2-hop neighbor
	}
	for _, l := range links {
		e, err := g.AddEdge(l.a, l.b)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.SetWeight("bandwidth", e, l.bw); err != nil {
			log.Fatal(err)
		}
	}
	w, err := g.Weights("bandwidth")
	if err != nil {
		log.Fatal(err)
	}
	view := qolsr.NewLocalView(g, 0)
	ans, err := (qolsr.FNBP{}).Select(view, qolsr.Bandwidth(), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("advertised:", ans)
	// Output:
	// advertised: [1]
}

// ExampleComputeFirstHops shows the fP(u,v) machinery the selection builds
// on: both tied wide detours to node 3 are reported as first hops.
func ExampleComputeFirstHops() {
	g := qolsr.NewGraph(4)
	links := []struct {
		a, b int32
		bw   float64
	}{
		{0, 1, 7}, {1, 3, 7}, // u-a-t
		{0, 2, 7}, {2, 3, 7}, // u-b-t (tied)
	}
	for _, l := range links {
		e, _ := g.AddEdge(l.a, l.b)
		if err := g.SetWeight("bandwidth", e, l.bw); err != nil {
			log.Fatal(err)
		}
	}
	w, _ := g.Weights("bandwidth")
	view := qolsr.NewLocalView(g, 0)
	fh, err := qolsr.ComputeFirstHops(view, qolsr.Bandwidth(), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("value:", fh.Dist[3])
	var hops []int32
	fh.ForEach(3, func(i int32) { hops = append(hops, view.N1[i]) })
	fmt.Println("first hops:", hops)
	// Output:
	// value: 7
	// first hops: [1 2]
}

// ExampleEvaluatePair computes the paper's overhead metric: the advertised
// topology only kept the narrow link, so routing loses bandwidth relative
// to the centralized optimum.
func ExampleEvaluatePair() {
	g := qolsr.NewGraph(3)
	for _, l := range []struct {
		a, b int32
		bw   float64
	}{{0, 1, 8}, {1, 2, 8}, {0, 2, 4}} {
		e, _ := g.AddEdge(l.a, l.b)
		if err := g.SetWeight("bandwidth", e, l.bw); err != nil {
			log.Fatal(err)
		}
	}
	// Suppose only the direct 0-2 link is advertised.
	adv, err := qolsr.BuildAdvertised(g, [][]int32{{2}, {}, {}}, "bandwidth")
	if err != nil {
		log.Fatal(err)
	}
	ev, err := qolsr.EvaluatePair(g, adv, qolsr.Bandwidth(), "bandwidth", 0, 2, qolsr.QoSOptimal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("achieved %.0f of optimal %.0f (overhead %.0f%%)\n",
		ev.Achieved, ev.Optimal, 100*ev.Overhead)
	// Output:
	// achieved 4 of optimal 8 (overhead 50%)
}

// ExampleSelectMPR contrasts the flooding set with FNBP's routing set: the
// greedy MPR heuristic must cover the 2-hop neighborhood regardless of link
// quality.
func ExampleSelectMPR() {
	g := qolsr.NewGraph(4)
	for _, l := range [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if _, err := g.AddEdge(l[0], l[1]); err != nil {
			log.Fatal(err)
		}
	}
	view := qolsr.NewLocalView(g, 0)
	mprs, err := qolsr.SelectMPR(view, qolsr.MPRGreedy, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("covered:", qolsr.VerifyMPRCoverage(view, mprs))
	fmt.Println("mpr count:", len(mprs))
	// Output:
	// covered: true
	// mpr count: 1
}
