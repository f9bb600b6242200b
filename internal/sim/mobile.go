package sim

import (
	"fmt"
	"math/rand"
	"time"

	"qolsr/internal/des"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/olsr"
)

// SetTopology swaps the physical graph under a running network — the
// mobility hook. The new graph must have the same node count (identities
// are positional) and carry the metric's weight channel. In-flight messages
// already scheduled keep their old delivery plan (they were radiated under
// the old geometry); everything after the swap uses the new one.
func (nw *Network) SetTopology(phys *graph.Graph) error {
	if phys.N() != nw.Phys.N() {
		return fmt.Errorf("sim: topology swap changes node count %d -> %d", nw.Phys.N(), phys.N())
	}
	if _, err := phys.Weights(nw.channel); err != nil {
		return err
	}
	for x := int32(0); int(x) < phys.N(); x++ {
		if phys.ID(x) != nw.Phys.ID(x) {
			return fmt.Errorf("sim: topology swap changes node %d identity", x)
		}
	}
	nw.Phys = phys
	nw.linkGen++
	return nil
}

// PairWeight deterministically derives a stable link weight for a node pair
// so a link that breaks and re-forms under mobility keeps its QoS value.
// The value lies in {1..10}, matching the paper's weight law.
func PairWeight(seed int64, a, b int32) float64 {
	k := linkKey(a, b)
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(uint32(k[0]))<<32 ^ uint64(uint32(k[1]))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(1 + h%10)
}

// MobileSim couples a running protocol network to a mobility model: every
// Interval of virtual time it advances the nodes, rebuilds the unit-disk
// topology from the new positions, and swaps it under the network. Link
// weights are stable per node pair (PairWeight).
type MobileSim struct {
	NW  *Network
	Mob *geom.Mobility

	field    geom.Field
	radius   float64
	interval time.Duration
	seed     int64
	// Rebuilds counts topology swaps performed.
	Rebuilds int
}

// NewMobileSim deploys len(initial) protocol nodes at the initial positions
// and arranges topology refreshes every interval.
func NewMobileSim(model geom.Waypoint, initial []geom.Point, radius float64, cfg olsr.Config, opts NetworkOptions, interval time.Duration, mobilityRNGSeed int64) (*MobileSim, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("sim: non-positive mobility interval")
	}
	mob, err := geom.NewMobility(model, initial, rand.New(rand.NewSource(mobilityRNGSeed)))
	if err != nil {
		return nil, err
	}
	ms := &MobileSim{
		Mob:      mob,
		field:    model.Field,
		radius:   radius,
		interval: interval,
		seed:     opts.Seed,
	}
	phys, err := ms.buildTopology(initial, cfg.Metric.Name())
	if err != nil {
		return nil, err
	}
	nw, err := NewNetwork(phys, cfg, opts)
	if err != nil {
		return nil, err
	}
	ms.NW = nw
	return ms, nil
}

// Start schedules the protocol and the periodic topology refresh.
func (ms *MobileSim) Start() {
	ms.NW.Start()
	ms.NW.Engine.After(ms.interval, des.Func(ms.refresh))
}

// Run advances virtual time.
func (ms *MobileSim) Run(until time.Duration) { ms.NW.Run(until) }

func (ms *MobileSim) refresh() {
	ms.Mob.AdvanceTo(ms.NW.Engine.Now())
	phys, err := ms.buildTopology(ms.Mob.Positions(), ms.NW.channel)
	if err == nil {
		if err := ms.NW.SetTopology(phys); err == nil {
			ms.Rebuilds++
		}
	}
	ms.NW.Engine.After(ms.interval, des.Func(ms.refresh))
}

func (ms *MobileSim) buildTopology(pts []geom.Point, channel string) (*graph.Graph, error) {
	return UnitDiskTopology(ms.field, ms.radius, pts, channel, ms.seed)
}

// UnitDiskTopology builds the unit-disk graph of the given positions with
// stable per-pair link weights (PairWeight) on the named channel: the same
// (seed, pair) always carries the same weight, so topologies rebuilt under
// mobility or rebuilt per scenario keep consistent QoS values.
func UnitDiskTopology(field geom.Field, radius float64, pts []geom.Point, channel string, seed int64) (*graph.Graph, error) {
	links, err := geom.Links(field, radius, pts)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(links))
	for e, l := range links {
		w[e] = PairWeight(seed, l[0], l[1])
	}
	g := graph.FromEdges(graph.IndexIDs(len(pts)), links, channel, w)
	// The medium serializes and admission judges on the bandwidth channel
	// whatever metric routes, so a graph routed on another carries both.
	for e := 0; channel != bandwidthChannel && e < len(w); e++ {
		_ = g.SetWeight(bandwidthChannel, e, w[e]) // e < g.M(): cannot fail
	}
	return g, nil
}
