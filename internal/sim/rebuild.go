package sim

import (
	"context"
	"sync/atomic"

	"qolsr/internal/olsr"
	"qolsr/internal/par"
)

// Parallel route rebuilds.
//
// A protocol node's routing table is a cached artifact of its own soft
// state, so the tables of any set of nodes can be rebuilt concurrently — the
// simulator is otherwise single-threaded, but the rebuild barrier between
// event-loop phases is embarrassingly parallel. "Its own" needs spelling out
// since the field's TC-learned topology lives in one shared origin-major
// store (olsr.NewNodes): Node.RoutesDirty and Node.Routes read the store's
// slot table and read or clear only the calling member's own rows — expiry
// zeroes a stale row in place — and nothing else shared; whatever the store
// keeps per slot (block allocation, slot reclaim) is written in handler
// context only, which never overlaps the barrier. The interned advertisement
// blocks other nodes share are read-only by contract. The result is
// byte-identical at every worker count: each node's table is a pure function
// of that node's state, workers only decide which goroutine performs the
// computation, and par.For reports the lowest failing index so even the
// failure surface is deterministic.

// RebuildRoutes brings the routing tables of the given nodes (graph
// indices; nil means every node) up to date as of the current virtual time,
// fanning the per-node SPF work through par.For on min(workers, nodes)
// goroutines (workers <= 0 means GOMAXPROCS; with one worker the nodes are
// rebuilt inline, in order, on the caller's goroutine). It returns the
// number of nodes whose table was actually rebuilt (the rest were served
// from cache) and the error of the first failing node in node order, if
// any; a failure stops the nodes not yet started.
//
// Call it only between engine runs — never from inside a firing event.
func (nw *Network) RebuildRoutes(idxs []int32, workers int) (rebuilt int, err error) {
	now := nw.Engine.Now()
	n := len(idxs)
	if idxs == nil {
		n = len(nw.Nodes)
	}
	var count atomic.Int64
	err = par.For(context.Background(), n, workers, func(_ context.Context, i int) error {
		nd := nw.Nodes[i]
		if idxs != nil {
			nd = nw.Nodes[idxs[i]]
		}
		dirty := nd.RoutesDirty(now)
		if _, err := nd.Routes(now); err != nil {
			return err
		}
		if dirty {
			count.Add(1)
		}
		return nil
	})
	return int(count.Load()), err
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
		t.TopoBuilds += s.TopoBuilds
		t.Selections += s.Selections
		t.SPFFull += s.SPFFull
		t.SPFIncremental += s.SPFIncremental
		t.DupHits += s.DupHits
		t.DeltaResyncs += s.DeltaResyncs
	}
	return t
}
