package sim

import (
	"math"
	"math/rand"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// newTestRand provides seeded randomness for test scaffolding.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sendData sends one nominal-size packet from src to dst through the data
// plane's sink entry; done, when non-nil, receives its completion.
func (nw *Network) sendData(src, dst int32, done func(delivered bool, hops int, latency time.Duration)) {
	var sink DataSink
	if done != nil {
		sink = sinkFunc(done)
	}
	nw.SendDataTraced(src, dst, DataPacketBytes, sink, 0, nil)
}

// sinkFunc completes a test packet through a closure.
type sinkFunc func(delivered bool, hops int, latency time.Duration)

func (f sinkFunc) PacketDone(_ uint64, delivered bool, hops int, latency time.Duration) {
	f(delivered, hops, latency)
}

// DeliverySweep sends one packet from every node to dst at the current
// virtual time and runs the engine until all complete — the all-pairs
// probe the data-plane and quiescence tests measure with. It returns the
// delivered fraction over physically-connected sources (1 when there are
// none) and the mean hop stretch of the delivered packets: hops taken over
// the hop-optimal distance on the physical topology (0 when none arrived).
func (nw *Network) DeliverySweep(dst int32) (delivery, stretch float64) {
	opt := graph.Dijkstra(nw.Phys, metric.Hop(), make([]float64, nw.Phys.M()), dst, nil, -1).Dist
	var delivered, total int
	var stretchSum float64
	for s := int32(0); int(s) < nw.Phys.N(); s++ {
		if s == dst || math.IsInf(opt[s], 1) {
			continue
		}
		total++
		hopsOpt := opt[s]
		nw.sendData(s, dst, func(ok bool, hops int, _ time.Duration) {
			if ok {
				delivered++
				stretchSum += float64(hops) / hopsOpt
			}
		})
	}
	// Packets traverse at most TTL hops, each bounded by the medium's
	// per-hop latency bound.
	nw.Run(nw.Engine.Now() + time.Duration(DefaultDataTTL+1)*nw.HopDelayBound())
	if total == 0 {
		return 1, 0
	}
	if delivered > 0 {
		stretch = stretchSum / float64(delivered)
	}
	return float64(delivered) / float64(total), stretch
}
