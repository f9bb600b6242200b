package sim

import "qolsr/internal/olsr"

// RebuildRoutes brings the routing tables of the given nodes (graph
// indices; nil means every node) up to date as of the current virtual time,
// in node order on the caller's goroutine. workers is unused: tables are
// rebuilt serially, and the parameter stays until the benchmark harness
// stops passing it (ROADMAP 14(b)). It returns the number of nodes whose
// table was actually rebuilt (the rest were served from cache) and the
// error of the first failing node, if any; a failure stops the rest.
//
// Call it only between engine runs — never from inside a firing event.
func (nw *Network) RebuildRoutes(idxs []int32, workers int) (rebuilt int, err error) {
	now := nw.Engine.Now()
	n := len(idxs)
	if idxs == nil {
		n = len(nw.Nodes)
	}
	for i := range n {
		nd := nw.Nodes[i]
		if idxs != nil {
			nd = nw.Nodes[idxs[i]]
		}
		dirty := nd.RoutesDirty(now)
		if _, err := nd.Routes(now); err != nil {
			return rebuilt, err
		}
		if dirty {
			rebuilt++
		}
	}
	return rebuilt, nil
}

// RebuildTotals sums the per-node rebuild and interning counters across the
// field, in ascending node order.
func (nw *Network) RebuildTotals() olsr.RebuildStats {
	var t olsr.RebuildStats
	for _, nd := range nw.Nodes {
		s := nd.RebuildStats()
		t.AdvRefresh += s.AdvRefresh
		t.AdvShared += s.AdvShared
		t.AdvChange += s.AdvChange
		t.Selections += s.Selections
		t.SPFFull += s.SPFFull
		t.DeltaResyncs += s.DeltaResyncs
	}
	return t
}
