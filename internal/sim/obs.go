package sim

import (
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
)

// mediumStats is the optional accounting surface the built-in media expose;
// Instrument reads it when present so custom test media need not care.
type mediumStats interface {
	Stats() MediumStats
}

// Instrument registers the network's whole counter surface — scheduler,
// control plane, data plane, medium, and the per-node rebuild/interning
// totals — on reg as lazy collectors. Nothing is added to any hot path:
// every collector reads plain fields the simulator maintains anyway, and is
// evaluated only when the registry is snapshotted or scraped. A nil
// registry is a no-op, so callers wire unconditionally.
//
// The network is single-goroutine; snapshot between Run calls (the scenario
// engine snapshots after the run drains), not from a concurrent goroutine.
func (nw *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	q := nw.Engine
	reg.CounterFunc("qolsr_des_events_scheduled_total", "events booked on the scheduler", q.Scheduled)
	reg.CounterFunc("qolsr_des_events_executed_total", "events processed by the scheduler", func() uint64 { return q.Executed })
	reg.CounterFunc("qolsr_des_fifo_scheduled_total", "events that took the fixed-delay fast lane", func() uint64 { return q.FifoScheduled })
	reg.CounterFunc("qolsr_des_far_scheduled_total", "events booked beyond the calendar horizon, into the overflow heap", func() uint64 { return q.FarScheduled })
	reg.GaugeFunc("qolsr_des_heap_high_water", "deepest timed-store occupancy (every pending event outside the lane)", func() float64 { return float64(q.HeapHighWater) })
	reg.GaugeFunc("qolsr_des_fifo_high_water", "deepest fixed-delay lane occupancy", func() float64 { return float64(q.FifoHighWater) })

	s := &nw.Stats
	reg.CounterFunc("qolsr_ctrl_messages_total", "control messages transmitted", func() uint64 { return s.HelloMessages }, obs.Label{Key: "type", Value: "hello"})
	reg.CounterFunc("qolsr_ctrl_messages_total", "control messages transmitted", func() uint64 { return s.TCMessages }, obs.Label{Key: "type", Value: "tc"})
	reg.CounterFunc("qolsr_ctrl_bytes_total", "control bytes transmitted", func() uint64 { return s.HelloBytes }, obs.Label{Key: "type", Value: "hello"})
	reg.CounterFunc("qolsr_ctrl_bytes_total", "control bytes transmitted", func() uint64 { return s.TCBytes }, obs.Label{Key: "type", Value: "tc"})
	reg.CounterFunc("qolsr_ctrl_tc_total", "TC transmissions by role", func() uint64 { return s.TCOriginated }, obs.Label{Key: "role", Value: "originated"})
	reg.CounterFunc("qolsr_ctrl_tc_total", "TC transmissions by role", func() uint64 { return s.TCForwarded }, obs.Label{Key: "role", Value: "forwarded"})
	reg.CounterFunc("qolsr_ctrl_dup_suppressed_total", "TC deliveries dropped as flood duplicates", func() uint64 { return s.DupSuppressed })

	d := &nw.Data
	reg.CounterFunc("qolsr_data_packets_total", "data packets by outcome", func() uint64 { return d.Sent }, obs.Label{Key: "outcome", Value: "sent"})
	reg.CounterFunc("qolsr_data_packets_total", "data packets by outcome", func() uint64 { return d.Delivered }, obs.Label{Key: "outcome", Value: "delivered"})
	reg.CounterFunc("qolsr_data_packets_total", "data packets by outcome", func() uint64 { return d.NoRoute }, obs.Label{Key: "outcome", Value: "no-route"})
	reg.CounterFunc("qolsr_data_packets_total", "data packets by outcome", func() uint64 { return d.Lost }, obs.Label{Key: "outcome", Value: "medium-loss"})
	reg.CounterFunc("qolsr_data_packets_total", "data packets by outcome", func() uint64 { return d.Expired }, obs.Label{Key: "outcome", Value: "ttl-expired"})
	reg.CounterFunc("qolsr_data_hops_total", "hops traversed by delivered packets", func() uint64 { return d.HopsTotal })
	reg.GaugeFunc("qolsr_data_latency_seconds_total", "summed delivery latency of delivered packets", func() float64 { return d.LatencyTotal.Seconds() })

	if ms, ok := nw.medium.(mediumStats); ok {
		reg.CounterFunc("qolsr_medium_frames_planned_total", "transmissions handed to the medium", func() uint64 { return ms.Stats().FramesPlanned })
		reg.CounterFunc("qolsr_medium_receptions_total", "planned per-receiver deliveries", func() uint64 { return ms.Stats().Receptions })
		reg.CounterFunc("qolsr_medium_receptions_lost_total", "per-receiver losses drawn by the medium", func() uint64 { return ms.Stats().ReceptionsLost })
		reg.CounterFunc("qolsr_medium_frames_stalled_total", "transmissions that queued behind a busy transmitter", func() uint64 { return ms.Stats().FramesStalled })
		reg.GaugeFunc("qolsr_medium_stall_seconds_total", "summed transmit-queue wait", func() float64 { return ms.Stats().StallTime.Seconds() })
	}

	reg.CounterFunc("qolsr_olsr_adv_builds_total", "advertised-set builds by kind", func() uint64 { return nw.RebuildTotals().AdvRefresh }, obs.Label{Key: "kind", Value: "refresh"})
	reg.CounterFunc("qolsr_olsr_adv_builds_total", "advertised-set builds by kind", func() uint64 { return nw.RebuildTotals().AdvChange }, obs.Label{Key: "kind", Value: "change"})
	reg.CounterFunc("qolsr_olsr_adv_shared_total", "advertised-set builds served from the shared-topology intern table", func() uint64 { return nw.RebuildTotals().AdvShared })
	reg.CounterFunc("qolsr_olsr_topo_builds_total", "reference routing-table builds of the cross-check test mode (0 outside it)", func() uint64 { return nw.RebuildTotals().TopoBuilds })
	reg.CounterFunc("qolsr_olsr_selections_total", "MPR/ANS selection runs on a rebuilt local view", func() uint64 { return nw.RebuildTotals().Selections })
	reg.CounterFunc("qolsr_olsr_spf_total", "shortest-path recomputations by kind", func() uint64 { return nw.RebuildTotals().SPFFull }, obs.Label{Key: "kind", Value: "full"})
	reg.CounterFunc("qolsr_olsr_spf_total", "shortest-path recomputations by kind", func() uint64 { return nw.RebuildTotals().SPFIncremental }, obs.Label{Key: "kind", Value: "incremental"})
	reg.CounterFunc("qolsr_olsr_dup_hits_total", "duplicate-window hits inside the protocol nodes", func() uint64 { return nw.RebuildTotals().DupHits })
	reg.CounterFunc("qolsr_olsr_delta_resyncs_total", "delta-TC chain breaks forcing a full-TC resync", func() uint64 { return nw.RebuildTotals().DeltaResyncs })
	reg.GaugeFunc("qolsr_olsr_intern_hit_rate", "shared-topology intern hit rate", func() float64 { return nw.RebuildTotals().EpochHitRate() })

	stateSum := func(field func(olsr.StateSize) int) func() float64 {
		return func() float64 {
			sum := 0
			for _, nd := range nw.Nodes {
				sum += field(nd.StateSize())
			}
			return float64(sum)
		}
	}
	reg.GaugeFunc("qolsr_olsr_topology_rows", "TC-learned topology rows held, summed over nodes", stateSum(func(s olsr.StateSize) int { return s.TopologyRows }))
	reg.GaugeFunc("qolsr_olsr_dirty_pairs", "pending dirty pairs, summed over nodes", stateSum(func(s olsr.StateSize) int { return s.DirtyPairs }))
	reg.GaugeFunc("qolsr_olsr_route_graph_nodes", "nodes of the held routing graphs, summed over nodes", stateSum(func(s olsr.StateSize) int { return s.RouteGraphNodes }))
}
