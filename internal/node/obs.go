package node

import (
	"time"

	"qolsr/internal/obs"
)

// transportDrops is the optional Transport facet surfacing receive-queue
// drops (UDPTransport implements it; the in-memory test transport may not).
type transportDrops interface{ Drops() uint64 }

// daemonMetrics is the daemon's registry-backed accounting. Every Stats
// counter is an atomic registry cell: the run loop increments through the
// handles and the /metrics scrape goroutine reads the same cells — no lock,
// no channel round trip, and no second copy that could drift from the
// status JSON (Stats is derived from these cells, see stats).
type daemonMetrics struct {
	reg *obs.Registry

	framesIn, framesOut, bytesIn, bytesOut                obs.Counter
	decodeErrors, unknownSender, spoofRejects, sendErrors obs.Counter
	// unsupported counts well-formed control messages of a type the daemon
	// does not carry (TC-DELTA); Stats.DecodeErrors includes them.
	unsupported                                  obs.Counter
	hellosIn, tcsIn, tcsForwarded                obs.Counter
	dataOriginated, dataForwarded, dataDelivered obs.Counter
	// Dropped transit packets, by reason; Stats.DataDropped is their sum.
	dropTTL, dropNoRoute, dropNotPeer obs.Counter

	// rtt observes every closed HELLO round trip, in seconds.
	rtt obs.Histogram
	// linkedNeighbors and routes mirror protocol-state sizes; the run loop
	// refreshes them on every HELLO tick (they are event-loop state, so the
	// scrape goroutine must never compute them itself).
	linkedNeighbors, routes obs.Gauge
}

// newDaemonMetrics builds the daemon's registry. Uptime and transport drops
// register as lazy collectors — both sources are safe to read from the
// scrape goroutine directly.
func newDaemonMetrics(start time.Time, tr Transport) *daemonMetrics {
	reg := obs.New()
	m := &daemonMetrics{reg: reg}
	dir := func(v string) obs.Label { return obs.Label{Key: "dir", Value: v} }
	reason := func(v string) obs.Label { return obs.Label{Key: "reason", Value: v} }
	event := func(v string) obs.Label { return obs.Label{Key: "event", Value: v} }

	m.framesIn = reg.Counter("qolsr_node_frames_total", "frames moved, by direction", dir("in"))
	m.framesOut = reg.Counter("qolsr_node_frames_total", "frames moved, by direction", dir("out"))
	m.bytesIn = reg.Counter("qolsr_node_bytes_total", "frame bytes moved, by direction", dir("in"))
	m.bytesOut = reg.Counter("qolsr_node_bytes_total", "frame bytes moved, by direction", dir("out"))
	m.decodeErrors = reg.Counter("qolsr_node_rejects_total", "inbound frames rejected, by reason", reason("decode"))
	m.unknownSender = reg.Counter("qolsr_node_rejects_total", "inbound frames rejected, by reason", reason("unknown-sender"))
	m.spoofRejects = reg.Counter("qolsr_node_rejects_total", "inbound frames rejected, by reason", reason("spoof"))
	m.unsupported = reg.Counter("qolsr_node_rejects_total", "inbound frames rejected, by reason", reason("unsupported"))
	m.sendErrors = reg.Counter("qolsr_node_send_errors_total", "frames that failed to marshal or transmit")
	m.hellosIn = reg.Counter("qolsr_node_ctrl_in_total", "control messages ingested, by type", obs.Label{Key: "type", Value: "hello"})
	m.tcsIn = reg.Counter("qolsr_node_ctrl_in_total", "control messages ingested, by type", obs.Label{Key: "type", Value: "tc"})
	m.tcsForwarded = reg.Counter("qolsr_node_tc_forwarded_total", "TCs re-flooded because the sender selected us as MPR")
	m.dataOriginated = reg.Counter("qolsr_node_data_total", "data packets, by event", event("originated"))
	m.dataForwarded = reg.Counter("qolsr_node_data_total", "data packets, by event", event("forwarded"))
	m.dataDelivered = reg.Counter("qolsr_node_data_total", "data packets, by event", event("delivered"))
	m.dropTTL = reg.Counter("qolsr_node_data_dropped_total", "transit data packets dropped, by reason", reason("ttl"))
	m.dropNoRoute = reg.Counter("qolsr_node_data_dropped_total", "transit data packets dropped, by reason", reason("no-route"))
	m.dropNotPeer = reg.Counter("qolsr_node_data_dropped_total", "transit data packets dropped, by reason", reason("not-peer"))
	m.rtt = reg.Histogram("qolsr_node_rtt_seconds", "measured HELLO round-trip time", obs.ExpBuckets(0.0005, 2, 12))
	m.linkedNeighbors = reg.Gauge("qolsr_node_neighbors_linked", "peers with a live, proven link")
	m.routes = reg.Gauge("qolsr_node_routes", "routing-table entries")

	reg.GaugeFunc("qolsr_node_uptime_seconds", "seconds since the daemon started", func() float64 {
		return time.Since(start).Seconds()
	})
	if td, ok := tr.(transportDrops); ok {
		reg.CounterFunc("qolsr_node_transport_drops_total", "inbound datagrams dropped on a full transport receive queue", td.Drops)
	}
	return m
}

// stats derives the status-report Stats from the registry cells.
func (m *daemonMetrics) stats(tr Transport) Stats {
	s := Stats{
		FramesIn:       m.framesIn.Value(),
		FramesOut:      m.framesOut.Value(),
		BytesIn:        m.bytesIn.Value(),
		BytesOut:       m.bytesOut.Value(),
		DecodeErrors:   m.decodeErrors.Value() + m.unsupported.Value(),
		UnknownSender:  m.unknownSender.Value(),
		SpoofRejects:   m.spoofRejects.Value(),
		SendErrors:     m.sendErrors.Value(),
		HellosIn:       m.hellosIn.Value(),
		TCsIn:          m.tcsIn.Value(),
		TCsForwarded:   m.tcsForwarded.Value(),
		DataOriginated: m.dataOriginated.Value(),
		DataForwarded:  m.dataForwarded.Value(),
		DataDelivered:  m.dataDelivered.Value(),
		DataLooped:     m.dropTTL.Value(),
	}
	s.DataDropped = s.DataLooped + m.dropNoRoute.Value() + m.dropNotPeer.Value()
	if td, ok := tr.(transportDrops); ok {
		s.TransportDrops = td.Drops()
	}
	return s
}

// refreshGauges mirrors event-loop-owned state sizes into the registry's
// atomic gauges. Runs on the event loop (every HELLO tick).
func (d *Daemon) refreshGauges(now time.Duration) {
	linked := 0
	for _, id := range d.order {
		if _, ok := d.node.LinkWeight(id, now); ok {
			linked++
		}
	}
	d.metrics.linkedNeighbors.Set(int64(linked))
	// Read the route count only when the table is already computed: a gauge
	// refresh must never be the reason an SPF runs on the hot tick path.
	if !d.node.RoutesDirty(now) {
		if routes, err := d.node.Routes(now); err == nil {
			d.metrics.routes.Set(int64(routes.Len()))
		}
	}
}
