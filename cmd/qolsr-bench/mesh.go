package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/node"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
)

// The mesh workloads run real daemons — the kernel taken out (mesh-mem) or
// left in over loopback sockets (mesh-udp) — and drive them with one
// closed-loop generator. Closed loop is deliberate: twenty daemons share
// the generator's two cores, so an open-loop rate sweep would measure the
// Go scheduler. Link weights are oracle weights of 1: with RTT-measured
// weights route choice follows timing noise and runs do not repeat.

const (
	meshHello = 100 * time.Millisecond
	meshTC    = 250 * time.Millisecond
	// meshWindow is the closed loop's window: packets in flight at once.
	meshWindow = 2
	// meshDeadline bounds one packet: past it the packet is a failure and
	// its window slot is freed, so a lost packet cannot hang the loop.
	meshDeadline = 250 * time.Millisecond
	meshBody     = 64
	// meshConvergeLimit is the convergence gate.
	meshConvergeLimit = 10 * time.Second
)

// delivery is what a destination daemon's OnData reports to the generator.
type delivery struct {
	k   uint64
	lat time.Duration
}

// mesh is a running set of daemons on one fabric.
type mesh struct {
	daemons []*node.Daemon
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	done    chan delivery
	epoch   time.Time
}

func meshID(i int) int64 { return int64(i + 1) }

// startMesh builds n ≥ 5 daemons as a chorded ring (peers at ±1 and ±2)
// and starts their run loops.
func startMesh(c *repCtx, udp bool, n int) (*mesh, error) {
	end := c.tr.begin("node", "node.new")
	defer end()
	transports := make([]node.Transport, n)
	closeAll := func() {
		for _, t := range transports {
			if t != nil {
				t.Close()
			}
		}
	}
	fabric := node.NewMemNetwork()
	for i := range transports {
		var err error
		if udp {
			transports[i], err = node.ListenUDP("127.0.0.1:0")
		} else {
			transports[i], err = fabric.Listen(fmt.Sprintf("mem-%d", i))
		}
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	m := &mesh{
		// Deliveries never block a daemon's run loop: the buffer holds a
		// full window plus late arrivals of packets already timed out.
		done:  make(chan delivery, 64*meshWindow),
		epoch: time.Now(),
	}
	onData := func(src int64, seq uint64, body []byte) {
		if len(body) < 16 {
			return
		}
		sent := time.Duration(binary.LittleEndian.Uint64(body[8:]))
		d := delivery{k: binary.LittleEndian.Uint64(body), lat: time.Since(m.epoch) - sent}
		select {
		case m.done <- d:
		default: // generator gone or flooded with late packets; it times the slot out
		}
	}
	for i := 0; i < n; i++ {
		var peers []node.Peer
		for _, d := range []int{-2, -1, 1, 2} {
			j := ((i+d)%n + n) % n
			peers = append(peers, node.Peer{ID: meshID(j), Addr: transports[j].LocalAddr(), Weight: 1})
		}
		d, err := node.New(node.Config{
			ID: meshID(i), Transport: transports[i], Peers: peers,
			HelloInterval: meshHello, TCInterval: meshTC,
			Measured: c.cfg.Measured, OnData: onData,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		m.daemons = append(m.daemons, d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	for _, d := range m.daemons {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			// Run returns nil on cancel and closes the transport on the way
			// out; a transport that fails mid-run shows up as failed sends.
			_ = d.Run(ctx)
		}()
	}
	return m, nil
}

// stop cancels every daemon and waits for its run loop to end.
func (m *mesh) stop() {
	m.cancel()
	m.wg.Wait()
}

// statuses polls every daemon's status under one span each.
func (m *mesh) statuses(c *repCtx) ([]node.StatusReport, error) {
	out := make([]node.StatusReport, len(m.daemons))
	for i, d := range m.daemons {
		end := c.tr.begin("node", "node.status")
		st, err := d.Status()
		end()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// converge polls until every ordered pair of daemons holds a route.
func (m *mesh) converge(c *repCtx) (time.Duration, error) {
	end := c.tr.begin("node", "node.converge")
	defer end()
	start := time.Now()
	n := len(m.daemons)
	for {
		sts, err := m.statuses(c)
		if err != nil {
			return 0, err
		}
		missing := 0
		for _, st := range sts {
			have := 0
			for _, r := range st.Routes {
				if r.Dst != st.ID {
					have++
				}
			}
			if have < n-1 {
				missing += n - 1 - have
			}
		}
		if missing == 0 {
			return time.Since(start), nil
		}
		if time.Since(start) > meshConvergeLimit {
			return 0, fmt.Errorf("mesh not converged after %v: %d pair routes missing", meshConvergeLimit, missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sumStats adds up the daemons' traffic counters.
func sumStats(sts []node.StatusReport) node.Stats {
	var s node.Stats
	for _, st := range sts {
		x := st.Stats
		s.FramesIn += x.FramesIn
		s.FramesOut += x.FramesOut
		s.BytesOut += x.BytesOut
		s.DecodeErrors += x.DecodeErrors
		s.TransportDrops += x.TransportDrops
		s.SendErrors += x.SendErrors
		s.TCsForwarded += x.TCsForwarded
		s.DataOriginated += x.DataOriginated
		s.DataForwarded += x.DataForwarded
		s.DataDelivered += x.DataDelivered
		s.DataDropped += x.DataDropped
	}
	return s
}

// generated is the closed-loop generator's outcome.
type generated struct {
	attempted, delivered, sendErrors, missed uint64
	latencies                                []float64 // µs, delivered packets
	sendCalls                                []float64 // µs, traced reps only
}

// generate sends total packets closed-loop from one goroutine: packet k
// leaves daemon (k+off) mod n for the daemon half a ring away, carrying k
// and its send instant; a slot frees when its packet arrives or times out.
func (m *mesh) generate(c *repCtx, total uint64) generated {
	n := uint64(len(m.daemons))
	off := uint64(c.seedFor("mesh-offset")) % n
	filler := rng.NewStream(uint64(c.cfg.Seed), 0xB0D1)
	type slot struct {
		k    uint64
		sent time.Time
		busy bool
		body [meshBody]byte
	}
	var slots [meshWindow]slot
	for i := range slots {
		for j := 16; j < meshBody; j += 8 {
			binary.LittleEndian.PutUint64(slots[i].body[j:], filler.Uint64())
		}
	}
	g := generated{latencies: make([]float64, 0, total)}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	inflight := 0
	for next := uint64(0); next < total || inflight > 0; {
		for i := range slots {
			s := &slots[i]
			if s.busy || next >= total {
				continue
			}
			k := next
			next++
			src := (k + off) % n
			dst := (src + n/2) % n
			s.k, s.sent = k, time.Now()
			binary.LittleEndian.PutUint64(s.body[:], k)
			binary.LittleEndian.PutUint64(s.body[8:], uint64(s.sent.Sub(m.epoch)))
			g.attempted++
			var endSpan func()
			if c.tr != nil && k%512 == 0 {
				endSpan = c.tr.begin("node", "node.send")
			}
			err := m.daemons[src].Send(meshID(int(dst)), s.body[:])
			if c.tr != nil {
				g.sendCalls = append(g.sendCalls, float64(time.Since(s.sent).Nanoseconds())/1e3)
				if endSpan != nil {
					endSpan()
				}
			}
			if err != nil {
				g.sendErrors++
				continue
			}
			s.busy = true
			inflight++
		}
		if inflight == 0 {
			continue
		}
		// Wait for a delivery or for the oldest in-flight packet's deadline.
		oldest := -1
		for i := range slots {
			if slots[i].busy && (oldest < 0 || slots[i].sent.Before(slots[oldest].sent)) {
				oldest = i
			}
		}
		timer.Reset(time.Until(slots[oldest].sent.Add(meshDeadline)))
		select {
		case d := <-m.done:
			for i := range slots {
				if slots[i].busy && slots[i].k == d.k {
					slots[i].busy = false
					inflight--
					g.delivered++
					g.latencies = append(g.latencies, float64(d.lat.Nanoseconds())/1e3)
				}
			}
		case <-timer.C:
			slots[oldest].busy = false
			inflight--
			g.missed++
		}
	}
	return g
}

func runMesh(udp bool) func(c *repCtx) error {
	return func(c *repCtx) error {
		n := scaled(c, 20, 8)
		total := uint64(scaled(c, 300000, 3000))
		if udp {
			total /= 2
		}
		m, err := startMesh(c, udp, n)
		if err != nil {
			return err
		}
		defer m.stop()
		converged, err := m.converge(c)
		if err != nil {
			c.failf("%v", err)
			return err
		}
		time.Sleep(scaled(c, 500*time.Millisecond, 100*time.Millisecond))
		before, err := m.statuses(c)
		if err != nil {
			return err
		}

		if err := c.beginTimed(); err != nil {
			return err
		}
		endTraffic := c.tr.begin("node", "node.traffic_phase")
		g := m.generate(c, total)
		endTraffic()
		if err := c.endTimed(g.delivered, g.delivered); err != nil {
			return err
		}
		wall := c.m["wall_s"]
		after, err := m.statuses(c)
		if err != nil {
			return err
		}
		s0, s1 := sumStats(before), sumStats(after)

		// A data frame's size on the wire, from the public codecs: what is
		// left of bytes_out after the data frames is control traffic.
		dataFrame, err := meshDataFrame()
		if err != nil {
			return err
		}
		dataFrames := (s1.DataOriginated - s0.DataOriginated) + (s1.DataForwarded - s0.DataForwarded)
		ctrlBytes := float64(s1.BytesOut-s0.BytesOut) - float64(dataFrames)*float64(len(dataFrame))
		framesIn := s1.FramesIn - s0.FramesIn

		// On a mesh the unit of work is a delivered packet, and the event
		// a frame (control or data) received by some daemon.
		c.m["events_per_s"] = float64(framesIn) / wall
		c.res.Attempted = g.attempted
		c.res.Failed = g.sendErrors + g.missed
		c.m["delivery_ratio"] = ratio(g.delivered, g.attempted)
		c.m["node.fail_ratio"] = ratio(c.res.Failed, g.attempted)
		c.m["ctrl_bytes_per_node_s"] = ctrlBytes / float64(n) / wall
		c.m["node.converge_s"] = converged.Seconds()

		sort.Float64s(g.latencies)
		c.res.LatencySamples = len(g.latencies)
		c.res.TopPercentile, _ = highestPercentile(len(g.latencies))
		c.m["node.fwd_latency_p50_us"] = quantile(g.latencies, 0.5)
		c.m["node.fwd_latency_p99_us"] = quantile(g.latencies, 0.99)

		if !c.cfg.Smoke && !c.cfg.Measured {
			if dr := c.m["delivery_ratio"]; dr < 0.999 {
				c.failf("mesh delivered %d of %d (%.4f < 0.999); %d send errors, %d deadline misses",
					g.delivered, g.attempted, dr, g.sendErrors, g.missed)
			}
		}
		if c.tr == nil {
			return nil
		}

		hops := ratio(s1.DataForwarded-s0.DataForwarded+g.delivered, g.delivered)
		c.m["node.frames_in"] = float64(framesIn)
		c.m["node.frames_out"] = float64(s1.FramesOut - s0.FramesOut)
		c.m["node.bytes_out"] = float64(s1.BytesOut - s0.BytesOut)
		c.m["node.tcs_forwarded"] = float64(s1.TCsForwarded - s0.TCsForwarded)
		c.m["node.data_forwarded"] = float64(s1.DataForwarded - s0.DataForwarded)
		c.m["node.data_dropped"] = float64(s1.DataDropped - s0.DataDropped)
		c.m["node.transport_drops"] = float64(s1.TransportDrops - s0.TransportDrops)
		c.m["node.decode_errors"] = float64(s1.DecodeErrors - s0.DecodeErrors)
		c.m["node.send_errors"] = float64(s1.SendErrors-s0.SendErrors) + float64(g.sendErrors)
		c.m["node.hops_mean"] = hops
		c.m["node.fwd_latency_p999_us"] = quantile(g.latencies, 0.999)
		if hops > 0 {
			c.m["node.latency_per_hop_us"] = c.m["node.fwd_latency_p50_us"] / hops
		}
		sort.Float64s(g.sendCalls)
		c.m["node.send_call_us_p50"] = quantile(g.sendCalls, 0.5)
		c.m["node.status_ms_p50"] = quantile(c.tr.durations("node.status"), 0.5) * 1e3
		if err := c.probeTransport(udp); err != nil {
			return err
		}

		// The daemons keep their olsr.Node private, so the control-plane
		// probes run on a simulated network of the same ring, metric and
		// timers, converged in virtual time.
		ring, cfg, err := meshShadow(n)
		if err != nil {
			return err
		}
		shadow, err := sim.NewNetwork(ring, cfg, sim.NetworkOptions{Seed: c.seedFor("protocol")})
		if err != nil {
			return err
		}
		shadow.Start()
		shadow.Run(2 * time.Second)
		return c.probeAll(probeInput{nw: shadow, cfg: cfg})
	}
}

// meshDataFrame encodes one data frame exactly as a daemon puts it on the
// wire.
func meshDataFrame() ([]byte, error) {
	pkt, err := node.MarshalData(&node.DataPacket{Dst: 2, Src: 1, Seq: 1, TTL: 16, Body: make([]byte, meshBody)})
	if err != nil {
		return nil, err
	}
	return node.MarshalFrame(&node.Frame{Kind: node.KindData, Sender: 1, Payload: pkt})
}

// meshShadow returns the chorded ring as a graph with unit delay weights
// and the protocol configuration node.New derives for the mesh's timers.
func meshShadow(n int) (*graph.Graph, olsr.Config, error) {
	m := metric.Delay()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2} {
			e, err := g.AddEdge(int32(i), int32((i+d)%n))
			if err != nil {
				return nil, olsr.Config{}, err
			}
			if err := g.SetWeight(m.Name(), e, 1); err != nil {
				return nil, olsr.Config{}, err
			}
		}
	}
	cfg := olsr.DefaultConfig(m)
	cfg.HelloInterval, cfg.NeighborHoldTime = meshHello, 3*meshHello
	cfg.TCInterval, cfg.TopologyHoldTime = meshTC, 3*meshTC
	return g, cfg, nil
}

// probeNodeCodecs times the daemon's two wire codecs on the mesh's own
// data frame.
func (c *repCtx) probeNodeCodecs() {
	frame, err := meshDataFrame()
	if err != nil {
		return
	}
	c.timeCalls("node", "node.frame_codec_ns", func() int {
		f, err := node.UnmarshalFrame(frame)
		if err != nil {
			return 0
		}
		out, err := node.MarshalFrame(f)
		if err != nil {
			return 0
		}
		sink += len(out)
		return 1
	})
	f, err := node.UnmarshalFrame(frame)
	if err != nil {
		return
	}
	c.timeCalls("node", "node.data_codec_ns", func() int {
		p, err := node.UnmarshalData(f.Payload)
		if err != nil {
			return 0
		}
		out, err := node.MarshalData(p)
		if err != nil {
			return 0
		}
		sink += len(out)
		return 1
	})
}

// probeTransport times the bare transport: one frame from endpoint a to
// endpoint b's Inbound and back, no daemon in between.
func (c *repCtx) probeTransport(udp bool) error {
	var a, b node.Transport
	var err error
	if udp {
		if a, err = node.ListenUDP("127.0.0.1:0"); err != nil {
			return err
		}
		if b, err = node.ListenUDP("127.0.0.1:0"); err != nil {
			a.Close()
			return err
		}
	} else {
		fabric := node.NewMemNetwork()
		if a, err = fabric.Listen("probe-a"); err != nil {
			return err
		}
		if b, err = fabric.Listen("probe-b"); err != nil {
			a.Close()
			return err
		}
	}
	defer a.Close()
	defer b.Close()
	frame, err := meshDataFrame()
	if err != nil {
		return err
	}
	var probeErr error
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	recv := func(t node.Transport) bool {
		timer.Reset(meshDeadline)
		select {
		case _, ok := <-t.Inbound():
			return ok
		case <-timer.C:
			return false
		}
	}
	c.timeCalls("node", "node.transport_rtt_ns", func() int {
		if err := a.Send(b.LocalAddr(), frame); err != nil {
			probeErr = err
			return 0
		}
		if !recv(b) {
			probeErr = fmt.Errorf("transport probe: frame a→b not received")
			return 0
		}
		if err := b.Send(a.LocalAddr(), frame); err != nil {
			probeErr = err
			return 0
		}
		if !recv(a) {
			probeErr = fmt.Errorf("transport probe: frame b→a not received")
			return 0
		}
		return 1
	})
	return probeErr
}
