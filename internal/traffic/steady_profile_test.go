package traffic

import (
	"testing"
	"time"

	"qolsr/internal/sim"
)

// TestSteadyStateProfile drives the benchmark workload for 600 virtual
// seconds so that a CPU profile taken with -run captures steady state only
// (a benchmark's CPU profile includes its untimed setup). It is a profiling
// helper, not a check: it runs only under -v, e.g.
//
//	go test -run '^TestSteadyStateProfile$' -v -cpuprofile cpu.out ./internal/traffic/
func TestSteadyStateProfile(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("profiling helper; run with -v")
	}
	nw := benchNetwork(t, sim.NewIdealMedium(0))
	eng := NewEngine(nw, 12)
	pairs := make([][2]int32, 16)
	for k := range pairs {
		pairs[k] = [2]int32{int32(k % 50), int32((k*7 + 13) % 50)}
	}
	flows, err := FlowsFromSpecs([]Spec{
		{Class: "cbr", Count: 8, RateBps: 16384},
		{Class: "video", Count: 8, RateBps: 16384},
	}, pairs, nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if err := eng.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	stop := nw.Engine.Now() + 600*time.Second
	if err := eng.Start(stop); err != nil {
		t.Fatal(err)
	}
	nw.Run(stop + time.Second)
	t.Logf("sent=%d", eng.Counters().Sent)
}
