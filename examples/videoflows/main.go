// Videoflows walks the QoS traffic engine: first an admission-control
// close-up on a tiny explicit topology (a flow rejected when its only path
// breaks the delay ceiling, admitted again once the direct link heals),
// then a scaled-down run of the built-in video-vs-cbr scenario showing
// per-class delivery, delay percentiles, jitter and the QoS verdicts —
// admitted-but-violated vs correctly-rejected. It is the runnable companion
// of the README "Traffic & QoS flows" section; `qolsr-sim scenario run
// -name video-vs-cbr` and `qolsr-sim -ablation load` expose the same
// machinery on the command line.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qolsr"
)

func main() {
	walkAdmission()
	runVideoVsCBR(context.Background())
}

// walkAdmission builds a diamond topology — a wide direct link 0-3 beside a
// narrow 3-hop chain — and shows the admission gate's decisions as the
// direct link fails and heals.
func walkAdmission() {
	g := qolsr.NewGraph(4)
	for _, l := range []struct {
		a, b int32
		w    float64
	}{{0, 3, 10}, {0, 1, 5}, {1, 2, 5}, {2, 3, 5}} {
		e, err := g.AddEdge(l.a, l.b)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.SetWeight("bandwidth", e, l.w); err != nil {
			log.Fatal(err)
		}
	}
	nw, err := qolsr.NewNetwork(g, qolsr.DefaultProtocolConfig(qolsr.Bandwidth()), qolsr.NetworkOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	nw.Start()
	nw.Run(30 * time.Second)

	gate := &qolsr.AdmissionGate{NW: nw}
	req := qolsr.FlowRequirements{MinBandwidth: 4, MaxDelay: 2 * time.Millisecond}
	show := func(when string) {
		dec := gate.Decide(0, 3, req)
		verdict := "rejected (" + dec.Reason + ")"
		if dec.Admitted {
			verdict = "admitted"
		}
		fmt.Printf("%-28s %s — %d hops, path bandwidth %g, path delay %v (oracle feasible: %v)\n",
			when+":", verdict, dec.Hops, dec.PathBandwidth, dec.PathDelay, dec.Feasible)
	}

	fmt.Println("# admission on a diamond: direct 0-3 (bandwidth 10) vs 3-hop chain (bandwidth 5)")
	fmt.Println("# flow 0->3 wants bandwidth >= 4 and delay <= 2ms (ideal radio: 1ms/hop)")
	show("converged")
	if err := nw.FailLink(0, 3); err != nil {
		log.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)
	show("after FailLink(0,3)")
	if err := nw.RestoreLink(0, 3); err != nil {
		log.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)
	show("after RestoreLink(0,3)")
	fmt.Println()
}

// runVideoVsCBR runs the built-in video-vs-cbr scenario, scaled down for
// example speed, and prints the per-class traffic verdicts.
func runVideoVsCBR(ctx context.Context) {
	sc, err := qolsr.ScenarioByName("video-vs-cbr", "fnbp")
	if err != nil {
		log.Fatal(err)
	}
	sc.Topology.Deployment.Degree = 8
	sc.Topology.Deployment.Field = qolsr.Field{Width: 400, Height: 400}
	sc.Duration = 60 * time.Second
	sc.Warmup = 20 * time.Second

	fmt.Println("# built-in video-vs-cbr (scaled down): bursty video with delay+jitter bounds vs CBR")
	res, err := qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithSeed(5)).RunScenario(ctx, sc)
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Runs[0].Traffic
	if rep == nil {
		log.Fatal("no traffic report")
	}
	fmt.Println("class    flows  admitted  satisfied  violated  c-reject  f-reject  delivery  p95        jitter")
	rows := append(append([]qolsr.FlowClassReport{}, rep.Classes...), rep.Total)
	for _, c := range rows {
		fmt.Printf("%-8s %-6d %-9d %-10d %-9d %-9d %-9d %-9.3f %-10v %v\n",
			c.Class, c.Flows, c.Admitted, c.Satisfied, c.Violated, c.CorrectReject, c.FalseReject,
			c.Delivery, c.DelayP95.Round(100*time.Microsecond), c.Jitter.Round(100*time.Microsecond))
	}
	fmt.Printf("mix violation ratio: %.3f (admitted flows whose measured QoS broke a bound)\n",
		rep.Total.ViolationRatio())
	for _, f := range rep.Flows {
		if f.Verdict == qolsr.FlowViolated || f.Verdict == qolsr.FlowCorrectReject {
			fmt.Printf("  flow %d (%s %d->%d): %s", f.ID, f.Class, f.Src, f.Dst, f.Verdict)
			if f.Reason != "" {
				fmt.Printf(" (%s)", f.Reason)
			}
			fmt.Println()
		}
	}
}
