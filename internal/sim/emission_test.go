package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

// The simulator never encodes a control message: receivers handle the
// origin's own struct and the byte counters add the length functions'
// sizes. That stands in for a real transmission only while every message a
// node generates survives the codec unchanged and the length functions
// agree with the encoder. TestGeneratedMessagesRoundTrip pins both on real
// converged fields; TestControlEmissionAllocs pins what leaving the codec
// out buys.

// TestGeneratedMessagesRoundTrip round-trips every node's generated HELLO
// and TC-family emissions through the wire codec on converged fields, under
// oracle and delivery-ratio sensing, on the classic plane and on the delta
// plane with fish-eye scoping: each decodes to the generated message (a nil
// slice equal to an empty one) and encodes to the length the simulator
// accounts.
func TestGeneratedMessagesRoundTrip(t *testing.T) {
	g := smallWorld(t, 11, 8)
	for _, sensing := range []struct {
		name   string
		mode   olsr.LinkSensing
		medium func() Medium
	}{
		{"oracle", olsr.SenseOracle, func() Medium { return NewIdealMedium(0) }},
		{"delivery", olsr.SenseDelivery, func() Medium { return NewLossyMedium(LossyConfig{Loss: 0.1, Seed: 3}) }},
	} {
		for _, delta := range []bool{false, true} {
			cfg := olsr.DefaultConfig(metric.Bandwidth())
			cfg.LinkSensing = sensing.mode
			plane := "classic"
			if delta {
				plane = "delta+fisheye"
				cfg.DeltaTC = true
				cfg.FisheyeTTLs = olsr.DefaultFisheyeTTLs()
			}
			t.Run(sensing.name+"/"+plane, func(t *testing.T) {
				nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5, Medium: sensing.medium()})
				if err != nil {
					t.Fatal(err)
				}
				nw.Start()
				nw.Run(30 * time.Second)
				now := nw.Engine.Now()
				var lqs, fulls, deltas, changes int
				for _, n := range nw.Nodes {
					h := n.GenerateHello(now)
					checkHello(t, h)
					lqs += len(h.LQs)
					// Enough emissions to reach both forms on the delta plane
					// (a full every fourth, or on every unlimited fish-eye scope).
					for range 4 {
						full, d, _ := n.GenerateTCUpdate(now)
						switch {
						case full != nil:
							fulls++
							checkTC(t, full)
						case d != nil:
							deltas++
							if len(d.Add)+len(d.Del) > 0 {
								changes++
							}
							checkTCDelta(t, d)
						}
					}
				}
				if (lqs > 0) != (sensing.mode == olsr.SenseDelivery) {
					t.Errorf("%d LQ entries under %s sensing", lqs, sensing.name)
				}
				if fulls == 0 || (deltas > 0) != delta {
					t.Errorf("%d full TCs and %d deltas on the %s plane", fulls, deltas, plane)
				}
				t.Logf("%d nodes: %d LQ entries, %d full TCs, %d deltas (%d non-empty)", len(nw.Nodes), lqs, fulls, deltas, changes)
			})
		}
	}
}

func checkHello(t *testing.T, h *olsr.Hello) {
	t.Helper()
	buf := olsr.MarshalHello(h)
	got, err := olsr.UnmarshalHello(buf)
	if err != nil {
		t.Fatalf("node %d: generated HELLO does not decode: %v", h.Origin, err)
	}
	if got.Origin != h.Origin || got.Seq != h.Seq || !slices.Equal(got.Links, h.Links) ||
		!slices.Equal(got.MPRs, h.MPRs) || !slices.Equal(got.LQs, h.LQs) {
		t.Fatalf("node %d: HELLO %+v decodes to %+v", h.Origin, h, got)
	}
	if n := olsr.HelloLen(h); n != len(buf) {
		t.Fatalf("node %d: HelloLen = %d, encoding is %d bytes", h.Origin, n, len(buf))
	}
}

func checkTC(t *testing.T, tc *olsr.TC) {
	t.Helper()
	buf := olsr.MarshalTC(tc)
	got, err := olsr.UnmarshalTC(buf)
	if err != nil {
		t.Fatalf("node %d: generated TC does not decode: %v", tc.Origin, err)
	}
	if got.Origin != tc.Origin || got.ANSN != tc.ANSN || got.Seq != tc.Seq || !slices.Equal(got.Links, tc.Links) {
		t.Fatalf("node %d: TC %+v decodes to %+v", tc.Origin, tc, got)
	}
	if n := olsr.TCLen(tc); n != len(buf) {
		t.Fatalf("node %d: TCLen = %d, encoding is %d bytes", tc.Origin, n, len(buf))
	}
}

func checkTCDelta(t *testing.T, d *olsr.TCDelta) {
	t.Helper()
	buf := olsr.MarshalTCDelta(d)
	got, err := olsr.UnmarshalTCDelta(buf)
	if err != nil {
		t.Fatalf("node %d: generated TC delta does not decode: %v", d.Origin, err)
	}
	if got.Origin != d.Origin || got.Seq != d.Seq || got.ANSN != d.ANSN || got.FullSeq != d.FullSeq ||
		got.Index != d.Index || !slices.Equal(got.Add, d.Add) || !slices.Equal(got.Del, d.Del) {
		t.Fatalf("node %d: TC delta %+v decodes to %+v", d.Origin, d, got)
	}
	if n := olsr.TCDeltaLen(d); n != len(buf) {
		t.Fatalf("node %d: TCDeltaLen = %d, encoding is %d bytes", d.Origin, n, len(buf))
	}
}

// TestControlEmissionAllocs pins the control plane's steady state on a
// converged 200-node field on the classic plane, one virtual second of
// protocol traffic per run, every node's routing table read after it. On
// the ideal medium nothing changes, so nothing may allocate. On the lossy
// medium lost HELLOs change neighbourhoods and routes, and the only
// allocations allowed are what those changes build: two per table rebuilt
// (the snapshot; olsr's TestRouteLayoutAllocs; a table over a changed id set
// also allocates its column, which a steady state rarely needs) and six per
// selection (the recompute's results, at most four by olsr's
// TestRecomputeAllocs, and the HELLO and TC link blocks the changed
// neighbourhood rebuilds). A HELLO or
// TC built on the heap and encoded costs two per origination, about 2,800
// over the ten seconds here; the encoding alone fails both media.
func TestControlEmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const side = 1200.0
	r := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	g, err := UnitDiskTopology(geom.Field{Width: side, Height: side}, 160, pts, "bandwidth", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                string
		medium              Medium
		perTable, perSelect uint64
	}{
		{"ideal", NewIdealMedium(0), 0, 0},
		{"lossy", NewLossyMedium(LossyConfig{Loss: 0.05, Seed: 7}), 2, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw, err := NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), NetworkOptions{Seed: 7, Medium: c.medium})
			if err != nil {
				t.Fatal(err)
			}
			nw.Start()
			nw.Run(20 * time.Second)
			readTables := func() {
				now := nw.Engine.Now()
				for _, n := range nw.Nodes {
					if _, err := n.Routes(now); err != nil {
						t.Fatal(err)
					}
				}
			}
			readTables()
			const runs = 10
			calls, tables, selections := 0, uint64(0), uint64(0)
			sent := nw.Stats.HelloMessages + nw.Stats.TCMessages
			allocs := testing.AllocsPerRun(runs, func() {
				before := nw.RebuildTotals()
				nw.Run(nw.Engine.Now() + time.Second)
				readTables()
				if calls > 0 { // AllocsPerRun's warm-up run is not counted
					after := nw.RebuildTotals()
					tables += after.SPFFull - before.SPFFull
					selections += after.Selections - before.Selections
				}
				calls++
			})
			sent = nw.Stats.HelloMessages + nw.Stats.TCMessages - sent
			total := uint64(allocs * runs)
			t.Logf("%d allocations over %d virtual seconds: %d tables rebuilt, %d selections, %d messages sent",
				total, runs, tables, selections, sent)
			if limit := c.perTable*tables + c.perSelect*selections; total > limit {
				t.Errorf("%s medium: %d allocations for %d rebuilt tables and %d selections, want at most %d",
					c.name, total, tables, selections, limit)
			}
		})
	}
}
