package sim

import (
	"runtime"
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
)

// A churn-free field in steady state is flat: what every node holds at ten
// topology hold times is exactly what it held at two, and so is the heap.
// The sizes are read through the registry's collectors, the way a run's
// metrics snapshot reports them.
func TestSteadyStateIsFlat(t *testing.T) {
	nw := testNetwork(t, mediumWorld(t, 31), metric.Bandwidth())
	reg := obs.New()
	nw.Instrument(reg)
	nw.Start()
	hold := olsr.DefaultConfig(metric.Bandwidth()).TopologyHoldTime

	// A tenth of the nodes are asked for routes, as flow sources would be.
	var queried []int32
	for x := int32(0); int(x) < nw.Phys.N(); x += 10 {
		queried = append(queried, x)
	}
	type sizes struct {
		gauges  map[string]float64
		perNode []olsr.StateSize
		heap    uint64
	}
	measure := func(until time.Duration) sizes {
		for nw.Engine.Now() < until {
			nw.Run(nw.Engine.Now() + time.Second)
			if _, err := nw.RebuildRoutes(queried, 1); err != nil {
				t.Fatal(err)
			}
		}
		s := sizes{gauges: map[string]float64{}}
		for _, m := range reg.Snapshot().Metrics {
			switch m.Name {
			case "qolsr_olsr_topology_rows", "qolsr_olsr_dirty_pairs", "qolsr_olsr_route_graph_nodes":
				s.gauges[m.Name] = m.Value
			}
		}
		for _, nd := range nw.Nodes {
			s.perNode = append(s.perNode, nd.StateSize())
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		s.heap = mem.HeapAlloc
		return s
	}
	early, late := measure(2*hold), measure(10*hold)
	runtime.KeepAlive(nw) // the second heap reading must still see the field

	if len(early.gauges) != 3 {
		t.Fatalf("state collectors missing from the registry: %v", early.gauges)
	}
	if early.gauges["qolsr_olsr_topology_rows"] == 0 || early.gauges["qolsr_olsr_route_graph_nodes"] == 0 {
		t.Fatalf("nothing held at 2x hold: %v", early.gauges)
	}
	for name, v := range early.gauges {
		if late.gauges[name] != v {
			t.Errorf("%s: %v at 2x hold, %v at 10x", name, v, late.gauges[name])
		}
	}
	for x := range early.perNode {
		if early.perNode[x] != late.perNode[x] {
			t.Errorf("node %d: %+v at 2x hold, %+v at 10x", x, early.perNode[x], late.perNode[x])
		}
	}
	if lo, hi := float64(early.heap)*0.95, float64(early.heap)*1.05; float64(late.heap) < lo || float64(late.heap) > hi {
		t.Errorf("live heap %d B at 2x hold, %d B at 10x: not within 5%%", early.heap, late.heap)
	}
}
