package sim

import (
	"math/rand"
	"time"

	"qolsr/internal/graph"
)

// newTestRand provides seeded randomness for test scaffolding.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// DeliverySweep sends one packet from every node to dst at the current
// virtual time and runs the engine until all complete — the all-pairs
// probe the data-plane and quiescence tests measure with. It returns the
// delivered fraction over physically-connected sources (1 when there are
// none) and the mean hop stretch of the delivered packets: hops taken over
// the hop-optimal distance on the physical topology (0 when none arrived).
func (nw *Network) DeliverySweep(dst int32) (delivery, stretch float64) {
	opt := graph.HopDistances(nw.Phys, dst)
	var delivered, total int
	var stretchSum float64
	for s := int32(0); int(s) < nw.Phys.N(); s++ {
		if s == dst || opt[s] < 0 {
			continue
		}
		total++
		hopsOpt := float64(opt[s])
		nw.SendData(s, dst, func(ok bool, hops int, _ time.Duration) {
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
