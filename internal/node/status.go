package node

import (
	"encoding/json"
	"net/http"
	"time"

	"qolsr/internal/obs"
)

// NeighborStatus is one configured peer in a status report.
type NeighborStatus struct {
	ID   int64  `json:"id"`
	Addr string `json:"addr"`
	// Weight is the current link weight the routing graph uses, absent
	// while the link is unproven (no HELLO yet, or in measured mode no
	// HELLO whose LQ block names this node).
	Weight float64 `json:"weight,omitempty"`
	Linked bool    `json:"linked"`
	// RTTms is the smoothed round-trip time in milliseconds, absent while
	// no round trip completed within the neighbor hold time.
	RTTms float64 `json:"rtt_ms,omitempty"`
	// LastHeardS is seconds since the peer's newest frame, -1 if never.
	LastHeardS float64 `json:"last_heard_s"`
}

// RouteStatus is one routing-table entry in a status report.
type RouteStatus struct {
	Dst     int64   `json:"dst"`
	NextHop int64   `json:"next_hop"`
	Value   float64 `json:"value"`
	Hops    int     `json:"hops"`
}

// StatusReport is a consistent snapshot of a daemon's protocol state,
// assembled inside the event loop.
type StatusReport struct {
	ID        int64            `json:"id"`
	Addr      string           `json:"addr"`
	UptimeS   float64          `json:"uptime_s"`
	Mode      string           `json:"mode"` // "measured" or "oracle"
	Metric    string           `json:"metric"`
	Neighbors []NeighborStatus `json:"neighbors"`
	MPRs      []int64          `json:"mprs"`
	Selectors []int64          `json:"selectors"`
	Routes    []RouteStatus    `json:"routes"`
	Stats     Stats            `json:"stats"`
}

// buildStatus assembles the snapshot. Runs on the event-loop goroutine.
func (d *Daemon) buildStatus(now time.Duration) StatusReport {
	r := StatusReport{
		ID:      d.cfg.ID,
		Addr:    d.tr.LocalAddr(),
		UptimeS: now.Seconds(),
		Mode:    "oracle",
		Metric:  d.cfg.Metric.Name(),
		Stats:   d.metrics.stats(d.tr),
	}
	if d.cfg.Measured {
		r.Mode = "measured"
	}
	for _, id := range d.order {
		p := d.peers[id]
		ns := NeighborStatus{ID: id, Addr: p.addr, LastHeardS: -1}
		if w, ok := d.node.LinkWeight(id, now); ok {
			ns.Weight, ns.Linked = w, true
		}
		if rtt, ok := d.node.LinkRTT(id, now); ok {
			ns.RTTms = float64(rtt) / float64(time.Millisecond)
		}
		if p.heard > 0 {
			ns.LastHeardS = (now - p.heard).Seconds()
		}
		r.Neighbors = append(r.Neighbors, ns)
	}
	r.MPRs = d.node.MPRSet(now)
	r.Selectors = d.node.Selectors(now)
	if routes, err := d.node.Routes(now); err == nil {
		for dst, rt := range routes.All() {
			r.Routes = append(r.Routes, RouteStatus{Dst: dst, NextHop: rt.NextHop, Value: rt.Value, Hops: rt.Hops})
		}
	}
	return r
}

// Status returns a consistent snapshot of the daemon's state. It blocks
// until the run loop serves the request and fails once the daemon stopped.
func (d *Daemon) Status() (StatusReport, error) {
	var r StatusReport
	err := d.call(request{status: &r})
	return r, err
}

// StatusHandler returns an HTTP handler serving the daemon's StatusReport
// as JSON on "/" and "/status", and its metrics registry in Prometheus text
// format on "/metrics". Bind it to a loopback listener: the report is
// operator introspection, not a public API. The registry cells are atomics
// and its lazy collectors read only scrape-safe sources, so a scrape never
// touches the event loop: it succeeds while the daemon is saturated or
// stopped.
func (d *Daemon) StatusHandler() http.Handler {
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, req *http.Request) {
		r, err := d.Status()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r)
	}
	mux.HandleFunc("/", serve)
	mux.HandleFunc("/status", serve)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		d.metrics.reg.WritePrometheus(w)
	})
	return mux
}
