package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qolsr/internal/olsr"
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
// computation, and errors are merged in ascending node order so even the
// failure surface is deterministic.

// RebuildRoutes brings the routing tables of the given nodes (graph
// indices; nil means every node) up to date as of the current virtual time,
// fanning the per-node SPF work across min(workers, nodes) goroutines
// (workers <= 0 means GOMAXPROCS). It returns the number of nodes whose
// table was actually rebuilt (the rest were served from cache) and the
// first error in node order, if any.
//
// Call it only between engine runs — never from inside a firing event.
func (nw *Network) RebuildRoutes(idxs []int32, workers int) (rebuilt int, err error) {
	now := nw.Engine.Now()
	n := len(idxs)
	if idxs == nil {
		n = len(nw.Nodes)
	}
	if n == 0 {
		return 0, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	node := func(i int) *olsr.Node {
		if idxs == nil {
			return nw.Nodes[i]
		}
		return nw.Nodes[idxs[i]]
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, e := rebuildOne(node(i), now)
			if e != nil {
				return rebuilt, e
			}
			if r {
				rebuilt++
			}
		}
		return rebuilt, nil
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		count  atomic.Int64
		errs   = make([]error, n)
		hadErr atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, e := rebuildOne(node(i), now)
				if e != nil {
					errs[i] = e
					hadErr.Store(true)
					continue
				}
				if r {
					count.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if hadErr.Load() {
		// First error in node order, whatever the interleaving was.
		for _, e := range errs {
			if e != nil {
				return int(count.Load()), e
			}
		}
	}
	return int(count.Load()), nil
}

// rebuildOne refreshes one node's table, reporting whether a rebuild (as
// opposed to a cache hit) happened.
func rebuildOne(nd *olsr.Node, now time.Duration) (bool, error) {
	dirty := nd.RoutesDirty(now)
	_, err := nd.Routes(now)
	return dirty && err == nil, err
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
