package sim

import (
	"testing"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
)

// Instrument must expose the scheduler, control-plane, data-plane, medium
// and rebuild counters as live collectors: running the network moves the
// snapshot values.
func TestNetworkInstrument(t *testing.T) {
	nw := testNetwork(t, smallWorld(t, 11, 8), metric.Bandwidth())
	reg := obs.New()
	nw.Instrument(reg)
	nw.Start()
	nw.Run(30 * time.Second)
	nw.DeliverySweep(0)

	vals := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		key := m.Name
		for _, l := range m.Labels {
			key += "/" + l.Value
		}
		vals[key] = m.Value
	}
	for _, want := range []string{
		"qolsr_des_events_scheduled_total",
		"qolsr_des_events_executed_total",
		"qolsr_des_heap_high_water",
		"qolsr_ctrl_messages_total/hello",
		"qolsr_ctrl_messages_total/tc",
		"qolsr_ctrl_dup_suppressed_total",
		"qolsr_data_packets_total/sent",
		"qolsr_data_packets_total/delivered",
		"qolsr_medium_frames_planned_total",
		"qolsr_olsr_spf_total/full",
	} {
		if vals[want] <= 0 {
			t.Errorf("%s = %v, want > 0 after a converged run", want, vals[want])
		}
	}
	if vals["qolsr_des_events_scheduled_total"] < vals["qolsr_des_events_executed_total"] {
		t.Errorf("scheduled %v < executed %v", vals["qolsr_des_events_scheduled_total"], vals["qolsr_des_events_executed_total"])
	}

	// Instrumenting must be a pure read layer: a nil registry is a no-op.
	nw.Instrument(nil)
}

// A traced packet over the lossy medium must record one hop per traversal
// with the transmit-queue wait, and finish with a terminal outcome event.
func TestTracedPacketOverLossyMedium(t *testing.T) {
	g := smallWorld(t, 11, 8)
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, NetworkOptions{
		Seed:   5,
		Medium: NewLossyMedium(LossyConfig{Seed: 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Tracer = obs.NewTracer(1, 1, 0) // trace everything
	nw.Start()
	nw.Run(30 * time.Second)

	src, dst := int32(0), int32(g.N()-1)
	pt := nw.Tracer.Start(0, 0)
	nw.SendDataTraced(src, dst, DataPacketBytes, nil, 0, pt)
	// Drain the in-flight packet.
	nw.Run(nw.Engine.Now() + time.Duration(DefaultDataTTL+1)*nw.HopDelayBound())

	ev := nw.Tracer.Events()
	if len(ev) == 0 {
		t.Fatal("traced packet produced no events")
	}
	last := ev[len(ev)-1]
	if last.Phase != "i" {
		t.Fatalf("last event phase %q, want terminal instant", last.Phase)
	}
	switch last.Name {
	case "delivered", "no-route", "ttl-expired", "medium-loss":
	default:
		t.Fatalf("unexpected outcome %q", last.Name)
	}
	for _, e := range ev[:len(ev)-1] {
		if e.Phase != "X" {
			t.Errorf("hop event phase %q, want X", e.Phase)
		}
	}
}

// TestMediumCountsDataHops: on either medium a data packet's every hop is
// one planned frame with one reception, the ideal medium's inline plan
// included. The packet flies between control emissions, which the window
// check makes sure of.
func TestMediumCountsDataHops(t *testing.T) {
	for _, m := range []Medium{NewIdealMedium(0), NewLossyMedium(LossyConfig{Seed: 1})} {
		t.Run(m.Name(), func(t *testing.T) {
			g := graph.New(4)
			for i := int32(0); i < 3; i++ {
				if err := g.SetWeight("bandwidth", mustAddEdge(g, i, i+1), 5); err != nil {
					t.Fatal(err)
				}
			}
			nw, err := NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), NetworkOptions{Seed: 3, Medium: m})
			if err != nil {
				t.Fatal(err)
			}
			nw.Start()
			nw.Run(20 * time.Second)
			ctrl := func() uint64 { return nw.Stats.HelloMessages + nw.Stats.TCMessages }
			c0, s0 := ctrl(), m.(mediumStats).Stats()
			hops := 0
			nw.sendData(0, 3, func(_ bool, h int, _ time.Duration) { hops = h })
			nw.Run(nw.Engine.Now() + 4*nw.HopDelayBound())
			s := m.(mediumStats).Stats()
			if ctrl() != c0 {
				t.Fatal("a control frame fell into the packet's window")
			}
			if hops != 3 || s.FramesPlanned-s0.FramesPlanned != 3 || s.Receptions-s0.Receptions != 3 {
				t.Fatalf("%d hops: %d frames planned, %d receptions; want 3 each",
					hops, s.FramesPlanned-s0.FramesPlanned, s.Receptions-s0.Receptions)
			}
		})
	}
}

// The medium's accounting must move when frames are planned and stall when
// the transmitter is busy.
func TestLossyMediumStats(t *testing.T) {
	g := smallWorld(t, 11, 8)
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	lm := NewLossyMedium(LossyConfig{Seed: 9, Loss: 0.3})
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5, Medium: lm})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(20 * time.Second)
	st := lm.Stats()
	if st.FramesPlanned == 0 || st.Receptions == 0 {
		t.Fatalf("no frames accounted: %+v", st)
	}
	if st.ReceptionsLost == 0 {
		t.Fatalf("30%% loss drew no losses: %+v", st)
	}
}
