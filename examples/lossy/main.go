// Lossy walks the radio-medium layer: a protocol network driven directly
// over the lossy medium with measured link quality (watching the ETX
// estimate converge to the configured loss rate), then a scaled-down run of
// the built-in lossy-degrade scenario showing delivery track the radio as
// it degrades and recovers. It is the runnable companion of the README
// "Radio medium" section; `qolsr-sim scenario run -medium lossy` and
// `qolsr-sim -ablation loss` expose the same machinery on the command line.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qolsr"
)

func main() {
	watchETXConverge()
	runLossyDegrade(context.Background())
}

// watchETXConverge builds a two-node network on a 25%-loss radio with
// measured QoS and prints the link-quality estimate as the HELLO stream
// probes the link. The expected steady state: delivery ratio ~0.75 per
// direction, ETX ~ 1/0.75² ~ 1.78 under the additive delay metric.
func watchETXConverge() {
	const loss = 0.25
	g := qolsr.NewGraph(2)
	e, err := g.AddEdge(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.SetWeight("delay", e, 1); err != nil {
		log.Fatal(err)
	}
	cfg := qolsr.DefaultProtocolConfig(qolsr.Delay())
	cfg.HelloInterval = time.Second
	cfg.NeighborHoldTime = 8 * time.Second
	cfg.LinkSensing = qolsr.SenseDelivery
	cfg.LQWindow = 32
	nw, err := qolsr.NewNetwork(g, cfg, qolsr.NetworkOptions{
		Seed:   1,
		Medium: qolsr.MediumLossy(qolsr.MediumLossyConfig{Loss: loss, Seed: 7}),
	})
	if err != nil {
		log.Fatal(err)
	}
	nw.Start()

	fmt.Printf("# two nodes, %.0f%% loss, measured link quality (want ratio ~%.2f, ETX ~%.2f)\n",
		loss*100, 1-loss, 1/((1-loss)*(1-loss)))
	fmt.Println("t_s   ratio0->1  etx0->1")
	for t := 20 * time.Second; t <= 120*time.Second; t += 20 * time.Second {
		nw.Run(t)
		ratio, _ := nw.Nodes[0].LinkQuality(int64(g.ID(1)), nw.Engine.Now())
		etx, _ := nw.Nodes[0].LinkWeight(int64(g.ID(1)), nw.Engine.Now())
		fmt.Printf("%-5g %-10.2f %.2f\n", t.Seconds(), ratio, etx)
	}
	fmt.Println()
}

// runLossyDegrade runs the built-in lossy-degrade scenario, scaled down for
// example speed: the radio starts at 5% loss, degrades to 35% mid-run and
// recovers, while measured-QoS selection tracks the change.
func runLossyDegrade(ctx context.Context) {
	sc, err := qolsr.ScenarioByName("lossy-degrade", "fnbp")
	if err != nil {
		log.Fatal(err)
	}
	// Scale down: smaller, sparser field and a shorter timeline; the
	// degrade/recover phases move with it.
	sc.Topology.Deployment.Degree = 8
	sc.Topology.Deployment.Field = qolsr.Field{Width: 400, Height: 400}
	sc.Duration = 80 * time.Second
	sc.Warmup = 20 * time.Second
	sc.Phases = []qolsr.ScenarioPhase{
		{At: 35 * time.Second, Action: qolsr.ActionSetLoss{Loss: 0.35}},
		{At: 60 * time.Second, Action: qolsr.ActionSetLoss{Loss: 0.05}},
	}

	fmt.Println("# built-in lossy-degrade (scaled down): 5% -> 35% @35s -> 5% @60s")
	fmt.Println("t_s   delivery")
	events, wait := qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithSeed(5)).StreamScenario(ctx, sc)
	for ev := range events {
		if ev.Kind == qolsr.ScenarioEventSample {
			s := ev.Sample
			fmt.Printf("%-5g %.2f\n", s.Time.Seconds(), s.Delivery)
		}
	}
	res, err := wait()
	if err != nil {
		log.Fatal(err)
	}
	run := res.Runs[0]
	fmt.Printf("totals: %d data packets sent, %d delivered, %d lost in flight, %d unroutable\n",
		run.Data.Sent, run.Data.Delivered, run.Data.Lost, run.Data.NoRoute)
	for _, rc := range run.Reconvergence {
		state := "never recovered"
		if rc.Recovered {
			state = fmt.Sprintf("recovered in %gs", rc.Duration().Seconds())
		}
		fmt.Printf("%s @%gs: %s\n", rc.Phase, rc.EventTime.Seconds(), state)
	}
}
