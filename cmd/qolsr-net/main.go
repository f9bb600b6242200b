// Command qolsr-net runs the full OLSR/QOLSR protocol stack (HELLO/TC
// exchange over an ideal-MAC discrete-event simulation) on a random Poisson
// deployment, then reports convergence against the offline selection,
// control-traffic cost, and a sample routing table.
//
// Usage:
//
//	qolsr-net -degree 15 -duration 60s
//	qolsr-net -metric delay -selector topofilter
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"

	"qolsr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qolsr-net:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		degree     = flag.Float64("degree", 12, "target mean node degree δ")
		seed       = flag.Int64("seed", 1, "RNG seed")
		duration   = flag.Duration("duration", 60*time.Second, "virtual time to simulate")
		metricName = flag.String("metric", "bandwidth", "QoS metric: bandwidth or delay")
		selName    = flag.String("selector", "fnbp", "advertised-set selector: fnbp, topofilter, qolsr, full")
		fieldSide  = flag.Float64("field", 600, "deployment field side length")
		speed      = flag.Float64("speed", 0, "random-waypoint max speed (units/s); 0 = static network")
	)
	flag.Parse()

	m, err := qolsr.MetricByName(*metricName)
	if err != nil {
		return err
	}
	sel, err := qolsr.SelectorByName(*selName)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	dep := qolsr.Deployment{
		Field:  qolsr.Field{Width: *fieldSide, Height: *fieldSide},
		Radius: 100,
		Degree: *degree,
	}
	cfg := qolsr.DefaultProtocolConfig(m)
	cfg.Selector = sel
	start := time.Now()

	var nw *qolsr.Network
	var g *qolsr.Graph
	if *speed > 0 {
		// Mobile network: same deployment law for initial positions,
		// then random-waypoint motion with 1 Hz topology refresh.
		pts, err := dep.Sample(rng)
		if err != nil {
			return err
		}
		model := qolsr.Waypoint{
			Field:    dep.Field,
			MinSpeed: *speed / 2,
			MaxSpeed: *speed,
			Pause:    2 * time.Second,
		}
		ms, err := qolsr.NewMobileSim(model, pts, dep.Radius, cfg, qolsr.NetworkOptions{Seed: *seed}, time.Second, *seed+1)
		if err != nil {
			return err
		}
		fmt.Printf("mobile deployment: %d nodes (δ target %g, field %gx%g, R=100, max speed %g u/s)\n",
			len(pts), *degree, *fieldSide, *fieldSide, *speed)
		ms.Start()
		ms.Run(*duration)
		nw, g = ms.NW, ms.NW.Phys
		fmt.Printf("topology rebuilds: %d\n", ms.Rebuilds)
	} else {
		var err error
		g, err = qolsr.BuildNetwork(dep, m.Name(), qolsr.DefaultInterval(), rng)
		if err != nil {
			return err
		}
		fmt.Printf("deployment: %d nodes, %d links (δ target %g, field %gx%g, R=100)\n",
			g.N(), g.M(), *degree, *fieldSide, *fieldSide)
		nw, err = qolsr.NewNetwork(g, cfg, qolsr.NetworkOptions{Seed: *seed})
		if err != nil {
			return err
		}
		nw.Start()
		nw.Run(*duration)
	}
	fmt.Printf("simulated %v of protocol time in %v wall time (%d events)\n",
		*duration, time.Since(start).Round(time.Millisecond), nw.Engine.Executed)

	// Convergence: distributed ANS vs offline selection on the true graph.
	w, err := g.Weights(m.Name())
	if err != nil {
		return err
	}
	sets, err := nw.ANSSets()
	if err != nil {
		return err
	}
	matched, total := 0, 0
	var meanSize float64
	for u := int32(0); int(u) < g.N(); u++ {
		view := qolsr.NewLocalView(g, u)
		want, err := sel.Select(view, m, w)
		if err != nil {
			return err
		}
		total++
		meanSize += float64(len(sets[u]))
		if reflect.DeepEqual(normalize(sets[u]), normalize(want)) {
			matched++
		}
	}
	fmt.Printf("convergence: %d/%d nodes match the offline %s selection\n", matched, total, sel.Name())
	fmt.Printf("advertised set size: %.2f neighbors/node (distributed)\n", meanSize/float64(total))

	s := nw.Stats
	fmt.Printf("control traffic: %d HELLOs (%d B), %d TCs incl. forwards (%d B), %.1f B/s total\n",
		s.HelloMessages, s.HelloBytes, s.TCMessages, s.TCBytes, nw.ControlBytesPerSecond())

	// Sample routing table from node 0.
	routes, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		return err
	}
	fmt.Printf("node %d routing table: %d destinations", nw.Nodes[0].ID, routes.Len())
	shown := 0
	for dst, r := range routes.All() {
		if shown++; shown > 5 {
			break
		}
		fmt.Printf("\n  -> %d via %d (%s %.2f, %d hops)", dst, r.NextHop, m.Name(), r.Value, r.Hops)
	}
	fmt.Println()
	return nil
}

func normalize(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}
