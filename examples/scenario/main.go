// Scenario drives the declarative scenario engine: a custom link-flap
// program on an explicit grid topology, streamed sample by sample, followed
// by a scaled-down run of the built-in partition-heal scenario comparing
// two advertised-set selectors. It is the runnable companion of the README
// "Scenarios" section; `qolsr-sim scenario run` exposes the same engine on
// the command line.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qolsr"
)

func main() {
	ctx := context.Background()
	streamLinkFlap(ctx)
	comparePartitionHeal(ctx)
}

// streamLinkFlap runs a custom program — a 3×4 grid whose busiest link
// flaps mid-run — and prints every measurement as it is taken.
func streamLinkFlap(ctx context.Context) {
	var pts []qolsr.Point
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			pts = append(pts, qolsr.Point{X: 30 + 80*float64(c), Y: 30 + 80*float64(r)})
		}
	}
	sc := qolsr.Scenario{
		Name:        "grid-link-flap",
		Topology:    qolsr.ScenarioTopology{Points: pts, Field: qolsr.Field{Width: 400, Height: 300}, Radius: 100},
		Protocol:    qolsr.ScenarioProtocol{Selector: "fnbp"},
		Traffic:     qolsr.ScenarioTraffic{Flows: 8},
		Duration:    50 * time.Second,
		Warmup:      16 * time.Second,
		SampleEvery: 2 * time.Second,
		Phases: []qolsr.ScenarioPhase{
			{At: 25 * time.Second, Action: qolsr.ActionFailRandom{Count: 2}},
			{At: 40 * time.Second, Action: qolsr.ActionRestoreAll{}},
		},
	}

	fmt.Println("# custom grid-link-flap, streamed")
	fmt.Println("t_s   delivery  links  ctrlB/s")
	events, wait := qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithSeed(7)).StreamScenario(ctx, sc)
	for ev := range events {
		if ev.Kind == qolsr.ScenarioEventSample {
			s := ev.Sample
			fmt.Printf("%-5g %-9.2f %-6d %.0f\n", s.Time.Seconds(), s.Delivery, s.Links, s.ControlBPS)
		}
	}
	res, err := wait()
	if err != nil {
		log.Fatal(err)
	}
	for _, rc := range res.Runs[0].Reconvergence {
		if rc.Recovered {
			fmt.Printf("%s @%gs: recovered in %gs\n", rc.Phase, rc.EventTime.Seconds(), rc.Duration().Seconds())
		} else {
			fmt.Printf("%s @%gs: never recovered\n", rc.Phase, rc.EventTime.Seconds())
		}
	}
	fmt.Println()
}

// comparePartitionHeal runs the built-in partition-heal scenario, scaled
// down for example speed, under two selectors and prints the delivery dip
// and heal.
func comparePartitionHeal(ctx context.Context) {
	fmt.Println("# built-in partition-heal (scaled down), fnbp vs qolsr")
	fmt.Println("selector    min-delivery  final-delivery  heal-time")
	for _, sel := range []string{"fnbp", "qolsr"} {
		sc, err := qolsr.ScenarioByName("partition-heal", sel)
		if err != nil {
			log.Fatal(err)
		}
		// Scale down: a smaller, sparser field and a shorter timeline
		// keep the example quick; the full-size program is one CLI call
		// away. The partition/heal phases at 40s/80s still fit.
		sc.Topology.Deployment.Degree = 8
		sc.Topology.Deployment.Field = qolsr.Field{Width: 400, Height: 400}
		sc.Duration = 100 * time.Second

		res, err := qolsr.NewRunner(qolsr.WithRuns(2), qolsr.WithSeed(3)).RunScenario(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}
		agg := res.Aggregate()
		minDelivery, finalDelivery := 1.0, agg[len(agg)-1].Delivery.Mean()
		for _, a := range agg {
			if m := a.Delivery.Mean(); m < minDelivery {
				minDelivery = m
			}
		}
		heal := "n/a"
		for _, run := range res.Runs {
			for _, rc := range run.Reconvergence {
				if rc.Phase == "restore-all" && rc.Recovered {
					heal = fmt.Sprintf("%gs", rc.Duration().Seconds())
				}
			}
		}
		fmt.Printf("%-11s %-13.2f %-15.2f %s\n", sel, minDelivery, finalDelivery, heal)
	}
}
