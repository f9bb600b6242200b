package node

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qolsr/internal/olsr"
)

// chain is a line 1-2-...-n of daemons on one MemNetwork whose run loops
// are not started: the test goroutine plays every loop itself, so a single
// handleFrame or originate call can be measured with nothing else running.
type chain struct {
	daemons []*Daemon
	trs     []*MemTransport
	// delay, when set, stamps each frame from one daemon to another that
	// long past the receiver's present instant. Only arrivals move a
	// daemon's clock ahead of the wall clock here, so each end closes its
	// round trips at twice its inbound delay.
	delay func(from, to int64) time.Duration
}

// newChain builds and converges the line by hand under declared weights.
func newChain(tb testing.TB, n int, onData func(src int64, seq uint64, body []byte)) *chain {
	return convergeChain(tb, &chain{}, n, Config{OnData: onData})
}

// newMeasuredChain is newChain under RTT-measured weights, with the pump
// delaying each direction of a link as delay says.
func newMeasuredChain(tb testing.TB, n int, delay func(from, to int64) time.Duration) *chain {
	return convergeChain(tb, &chain{delay: delay}, n, Config{Measured: true})
}

// convergeChain builds and converges the line by hand: HELLO and TC rounds
// are emitted directly and every queued frame is pumped into its daemon.
// The intervals are a minute unless cfg sets them, so nothing expires under
// the test.
func convergeChain(tb testing.TB, c *chain, n int, cfg Config) *chain {
	tb.Helper()
	mn := NewMemNetwork()
	for id := int64(1); id <= int64(n); id++ {
		tr, err := mn.Listen(fmt.Sprintf("n%d", id))
		if err != nil {
			tb.Fatal(err)
		}
		var ps []Peer
		for _, p := range line(int64(n))[id] {
			ps = append(ps, Peer{ID: p, Addr: fmt.Sprintf("n%d", p)})
		}
		cfg.ID, cfg.Transport, cfg.Peers = id, tr, ps
		if cfg.HelloInterval == 0 {
			cfg.HelloInterval, cfg.TCInterval = time.Minute, time.Minute
		}
		d, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		c.daemons, c.trs = append(c.daemons, d), append(c.trs, tr)
	}
	// Measured links form on the third round: a HELLO, an echo, then the
	// LQ block naming the peer.
	for round := 0; round < n+4; round++ {
		for _, d := range c.daemons {
			// Both deadlines due: tick emits a HELLO and, once the node
			// has a set to advertise, a TC. Its timer is the test's.
			d.timer, d.nextHello, d.nextTC = time.NewTimer(time.Hour), 0, 0
			d.tick()
			d.timer.Stop()
		}
		c.pump()
	}
	for _, d := range c.daemons {
		routes, err := d.node.Routes(d.now())
		if err != nil || routes.Len() != n-1 {
			tb.Fatalf("node %d: %d routes (err %v), want %d", d.cfg.ID, routes.Len(), err, n-1)
		}
	}
	return c
}

// pump plays the run loops until no frame is queued anywhere.
func (c *chain) pump() {
	for moved := true; moved; {
		moved = false
		for i, tr := range c.trs {
			for len(tr.in) > 0 {
				in, d := <-tr.in, c.daemons[i]
				if c.delay != nil {
					from, _ := strconv.ParseInt(in.From[1:], 10, 64)
					in.At = d.start.Add(d.now() + c.delay(from, d.cfg.ID))
				}
				d.handleFrame(in)
				freeFrame(in.Data)
				moved = true
			}
		}
	}
}

// transitFrame encodes a data frame from node 1 for dst, as node 2 (the
// middle of a three-chain) would receive it. It echoes a stamp, so the hop
// also closes a round trip.
func transitFrame(tb testing.TB, dst int64, ttl uint8, body []byte) []byte {
	tb.Helper()
	pkt, err := MarshalData(&DataPacket{Dst: dst, Src: 1, Seq: 9, TTL: ttl, Body: body})
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := MarshalFrame(&Frame{Kind: KindData, Sender: 1, TxTime: 1, EchoTime: 1, Payload: pkt})
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestForwardAllocs pins the forwarding hop: handleFrame on a transit data
// frame — decode, the round trip its echo closes, route lookup, in-place
// re-stamp, transport copy into a recycled buffer — allocates nothing.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	c := newChain(t, 3, nil)
	mid, next := c.daemons[1], c.trs[2]
	// The hop rewrites the frame it is handed; each run gets a fresh copy.
	pristine := transitFrame(t, 3, 32, make([]byte, 64))
	frame := make([]byte, len(pristine))
	in := Inbound{From: "n1", Data: frame, At: time.Now()}
	before := mid.metrics.dataForwarded.Value()
	rtt0, _ := mid.node.LinkRTT(1, mid.now())
	allocs := testing.AllocsPerRun(200, func() {
		copy(frame, pristine)
		mid.handleFrame(in)
		freeFrame((<-next.in).Data)
	})
	if got := mid.metrics.dataForwarded.Value() - before; got != 201 {
		t.Fatalf("forwarded %d frames, want 201", got)
	}
	if rtt, _ := mid.node.LinkRTT(1, mid.now()); rtt == rtt0 {
		t.Fatal("the hop closed no round trip")
	}
	if allocs != 0 {
		t.Fatalf("forwarding hop allocates %v per frame, want 0", allocs)
	}
}

// TestMeasuredEndsAgree converges a measured two-chain whose directions are
// delayed differently, 1 ms toward node 2 and 3 ms toward node 1, so the ends
// measure round trips of about 2 and 6 ms: windowed minima several ladder
// buckets apart. Both ends must still report the link at one weight.
func TestMeasuredEndsAgree(t *testing.T) {
	c := newMeasuredChain(t, 2, func(from, to int64) time.Duration {
		if to == 2 {
			return time.Millisecond
		}
		return 3 * time.Millisecond
	})
	var nb [2]NeighborStatus
	for i, d := range c.daemons {
		st := d.buildStatus(d.now())
		if len(st.Neighbors) != 1 || !st.Neighbors[0].Linked {
			t.Fatalf("node %d: neighbors %+v, want one linked", st.ID, st.Neighbors)
		}
		nb[i] = st.Neighbors[0]
	}
	if nb[0].RTTms < 2*nb[1].RTTms {
		t.Fatalf("rtt_ms %v at node 1 and %v at node 2: the delays did not part the ends", nb[0].RTTms, nb[1].RTTms)
	}
	if nb[0].Weight != nb[1].Weight {
		t.Fatalf("node 1 weighs the link %v, node 2 %v; want one weight", nb[0].Weight, nb[1].Weight)
	}
}

// TestDeclaredHellosCarryNoLQ: under declared weights the echoes still feed
// the RTT estimators, but a HELLO keeps the pre-measurement wire form, with
// no LQ block.
func TestDeclaredHellosCarryNoLQ(t *testing.T) {
	d := newChain(t, 2, nil).daemons[0]
	if _, ok := d.node.LinkRTT(2, d.now()); !ok {
		t.Fatal("no round trip measured")
	}
	if h := d.node.GenerateHello(d.now()); h.LQs != nil {
		t.Fatalf("declared-weight HELLO carries an LQ block: %v", h.LQs)
	}
}

// TestOriginateAllocs pins the originating hop the same way.
func TestOriginateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	c := newChain(t, 3, nil)
	src, next := c.daemons[0], c.trs[1]
	body := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if err := src.originate(3, body, src.now()); err != nil {
			t.Fatal(err)
		}
		freeFrame((<-next.in).Data)
	})
	if allocs != 0 {
		t.Fatalf("originate allocates %v per packet, want 0", allocs)
	}
}

// TestUDPSteadyStateAllocs bounds a datagram's trip through the real-socket
// transport — Send, the read loop's copy, the inbound queue — at one
// allocation (none today; the slack is the runtime's, e.g. a pool refill
// after a GC cycle).
func TestUDPSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	frame, to := transitFrame(t, 3, 32, make([]byte, 64)), b.LocalAddr()
	lost := time.NewTimer(time.Hour) // re-armed per trip: time.After would allocate
	defer lost.Stop()
	trip := func() {
		if err := a.Send(to, frame); err != nil {
			t.Fatal(err)
		}
		lost.Reset(5 * time.Second)
		select {
		case in := <-b.Inbound():
			freeFrame(in.Data)
		case <-lost.C:
			t.Fatal("datagram lost on loopback")
		}
	}
	trip() // resolve the address, name the source
	if allocs := testing.AllocsPerRun(200, trip); allocs > 1 {
		t.Fatalf("UDP trip allocates %v per datagram, want <= 1", allocs)
	}
}

// BenchmarkDaemonForward is one in-memory hop: the middle daemon of a
// three-chain forwarding a 64-byte-body data frame, with the next hop's
// queue emptied by the benchmark itself.
func BenchmarkDaemonForward(b *testing.B) {
	c := newChain(b, 3, nil)
	mid, next := c.daemons[1], c.trs[2]
	pristine := transitFrame(b, 3, 32, make([]byte, 64))
	frame := make([]byte, len(pristine))
	in := Inbound{From: "n1", Data: frame}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(frame, pristine)
		in.At = time.Now() // the transport's stamp: the hop's one clock read
		mid.handleFrame(in)
		freeFrame((<-next.in).Data)
	}
}

// TestForwardInPlaceEqualsReencode checks the in-place forward against the
// codec: the bytes the middle daemon sends on equal a from-scratch encoding
// of the packet with its TTL decremented, under the header stamps the
// forwarder chose.
func TestForwardInPlaceEqualsReencode(t *testing.T) {
	c := newChain(t, 3, nil)
	mid, next := c.daemons[1], c.trs[2]
	body := []byte("in place, byte for byte")
	mid.handleFrame(Inbound{From: "n1", Data: transitFrame(t, 3, 7, body), At: time.Now()})
	got := (<-next.in).Data
	hdr, err := UnmarshalFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Sender != 2 || hdr.TxTime == 0 {
		t.Fatalf("forwarded header not re-stamped: %+v", hdr)
	}
	pkt, err := MarshalData(&DataPacket{Dst: 3, Src: 1, Seq: 9, TTL: 6, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalFrame(&Frame{Kind: KindData, Sender: 2, TxTime: hdr.TxTime,
		EchoTime: hdr.EchoTime, EchoDelay: hdr.EchoDelay, Payload: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place forward differs from re-encoding:\n got %x\nwant %x", got, want)
	}
}

// TestDropReasons checks that a dropped transit packet says why: a spent TTL
// and a missing route land in their own registry cells, both are logged, and
// Stats reports the sum with the TTL share beside it.
func TestDropReasons(t *testing.T) {
	c := newChain(t, 3, nil)
	mid := c.daemons[1]
	var logged []string
	mid.cfg.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	mid.handleFrame(Inbound{From: "n1", Data: transitFrame(t, 3, 0, nil), At: time.Now()})
	mid.handleFrame(Inbound{From: "n1", Data: transitFrame(t, 99, 5, nil), At: time.Now()})
	if s := mid.metrics.stats(mid.tr); s.DataDropped != 2 || s.DataLooped != 1 || s.DataForwarded != 0 {
		t.Fatalf("dropped %d, looped %d, forwarded %d; want 2, 1, 0", s.DataDropped, s.DataLooped, s.DataForwarded)
	}
	if ttl, hole := mid.metrics.dropTTL.Value(), mid.metrics.dropNoRoute.Value(); ttl != 1 || hole != 1 {
		t.Fatalf("reason cells: ttl %d, no-route %d; want 1 and 1", ttl, hole)
	}
	if len(logged) != 2 || !strings.Contains(logged[0], "ttl exhausted") || !strings.Contains(logged[1], "no route to 99") {
		t.Fatalf("drop log: %q", logged)
	}
	var prom bytes.Buffer
	mid.metrics.reg.WritePrometheus(&prom)
	if want := `qolsr_node_data_dropped_total{reason="ttl"} 1`; !strings.Contains(prom.String(), want) {
		t.Fatalf("/metrics lacks %s", want)
	}
}

// soakBody fills a packet body with k, bytes derived from k, and a checksum
// over both; soakCheck recovers k or reports corruption.
func soakBody(body []byte, k uint64) {
	binary.LittleEndian.PutUint64(body, k)
	var sum uint64
	for i := 8; i < len(body)-8; i++ {
		body[i] = byte(k*31 + uint64(i))
		sum = sum*131 + uint64(body[i])
	}
	binary.LittleEndian.PutUint64(body[len(body)-8:], sum^k)
}

func soakCheck(body []byte) (k uint64, ok bool) {
	if len(body) < 16 {
		return 0, false
	}
	k = binary.LittleEndian.Uint64(body)
	var sum uint64
	for i := 8; i < len(body)-8; i++ {
		if body[i] != byte(k*31+uint64(i)) {
			return k, false
		}
		sum = sum*131 + uint64(body[i])
	}
	return k, binary.LittleEndian.Uint64(body[len(body)-8:]) == sum^k
}

// TestBufferIntegritySoak pushes 50,000 checksummed packets down a five-hop
// chain of running daemons with 64 in flight. Every delivery must verify and
// none may repeat: a receive buffer recycled while still queued, or while
// OnData reads it, shows up as a corrupt body, a duplicate or — under -race
// — a data race on the buffer.
func TestBufferIntegritySoak(t *testing.T) {
	const (
		hops    = 5
		window  = 64
		packets = 50000
	)
	seen := make([]bool, packets) // written by the destination's loop only
	slots := make(chan struct{}, window)
	var delivered atomic.Uint64
	onData := func(src int64, seq uint64, body []byte) {
		k, ok := soakCheck(body)
		switch {
		case !ok || k >= packets:
			t.Errorf("packet seq %d from %d arrived corrupt (k=%d, %d bytes)", seq, src, k, len(body))
		case seen[k]:
			t.Errorf("packet %d delivered twice", k)
		default:
			seen[k] = true
			delivered.Add(1)
			<-slots
		}
	}
	m := startMesh(t, NewMemNetwork(), line(hops+1), false, nil, func(id int64, cfg *Config) {
		if id == hops+1 {
			cfg.OnData = onData
		}
	})
	m.waitConverged(t, 10*time.Second)

	var body [96]byte
	giveUp := time.After(2 * time.Minute)
	for k := uint64(0); k < packets; k++ {
		select {
		case slots <- struct{}{}:
		case <-giveUp:
			t.Fatalf("window stuck: %d of %d delivered", delivered.Load(), k)
		}
		soakBody(body[:], k)
		if err := m.daemons[1].Send(hops+1, body[:]); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); delivered.Load() < packets; {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", delivered.Load(), packets)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.stop()
	for id, d := range m.daemons {
		if s := d.metrics.stats(d.tr); s.DataDropped != 0 || s.DecodeErrors != 0 || s.TransportDrops != 0 {
			t.Errorf("node %d: dropped %d, decode errors %d, transport drops %d; want none",
				id, s.DataDropped, s.DecodeErrors, s.TransportDrops)
		}
	}
}

// TestStalledLoopKeepsRoutes stalls the middle daemon of a line for twice
// the neighbour hold time while its peers keep sending HELLOs and a Send is
// already queued on it. When the loop resumes it must read the queued
// HELLOs before it judges soft state: the Send finds its route, and nothing
// is dropped.
func TestStalledLoopKeepsRoutes(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	sink := make(chan delivery, 4)
	m := startMesh(t, NewMemNetwork(), line(3), false, sink, func(id int64, cfg *Config) {
		if id != 2 {
			return
		}
		cfg.OnData = func(src int64, seq uint64, body []byte) {
			close(entered)
			<-release
		}
	})
	m.waitConverged(t, 10*time.Second)
	if err := m.daemons[1].Send(2, []byte("stall")); err != nil {
		t.Fatal(err)
	}
	<-entered
	sent := make(chan error, 1)
	go func() { sent <- m.daemons[2].Send(3, []byte("after the stall")) }()
	hold := 3 * m.daemons[2].cfg.HelloInterval
	time.Sleep(2 * hold)
	close(release)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send after a %v stall: %v", 2*hold, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued send never served")
	}
	select {
	case got := <-sink:
		if got.at != 3 || got.body != "after the stall" {
			t.Fatalf("delivered %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet never delivered")
	}
	for id, d := range m.daemons {
		st, err := d.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats.DataDropped != 0 {
			t.Errorf("node %d dropped %d data packets", id, st.Stats.DataDropped)
		}
	}
}

// emissionLog wraps a transport and timestamps the HELLOs and the self-
// originated TCs its daemon sends to one peer.
type emissionLog struct {
	Transport
	id     int64
	addr   string
	mu     sync.Mutex
	hellos []time.Time
	tcs    []time.Time
}

func (e *emissionLog) Send(addr string, frame []byte) error {
	if f, err := UnmarshalFrame(frame); err == nil && addr == e.addr && f.Kind == KindControl {
		now := time.Now()
		e.mu.Lock()
		switch typ, _ := olsr.PeekType(f.Payload); typ {
		case olsr.MsgHello:
			e.hellos = append(e.hellos, now)
		case olsr.MsgTC:
			if tc, err := olsr.UnmarshalTC(f.Payload); err == nil && tc.Origin == e.id {
				e.tcs = append(e.tcs, now)
			}
		}
		e.mu.Unlock()
	}
	return e.Transport.Send(addr, frame)
}

// within counts the stamps in [from, from+span).
func within(stamps []time.Time, from time.Time, span time.Duration) int {
	n := 0
	for _, s := range stamps {
		if !s.Before(from) && s.Before(from.Add(span)) {
			n++
		}
	}
	return n
}

// TestTimerCadence checks the deadline-driven emission timer: at HELLO 50 ms
// and TC 125 ms, two seconds hold 40 HELLOs and 16 TCs (±1 for the window's
// edges) — also when the loop is blocked for 30 ms six times on the way,
// which a timer re-armed "from now" would pay for with three to four HELLOs.
// The test goroutine sleeps through the window in 5 ms steps and so notices
// when the whole process was descheduled (a busy host skips emissions no
// timer design could have made); only such a disturbed window is retried.
func TestTimerCadence(t *testing.T) {
	const span = 2 * time.Second
	var log *emissionLog
	m := startMesh(t, NewMemNetwork(), line(3), false, nil, func(id int64, cfg *Config) {
		cfg.HelloInterval, cfg.TCInterval = 50*time.Millisecond, 125*time.Millisecond
		if id == 1 {
			// Node 1 selects 2 to reach 3, so it has a set to advertise.
			log = &emissionLog{Transport: cfg.Transport, id: 1, addr: "n2"}
			cfg.Transport = log
			cfg.OnData = func(src int64, seq uint64, body []byte) { time.Sleep(30 * time.Millisecond) }
		}
	})
	m.waitConverged(t, 10*time.Second)
	for attempt := 1; ; attempt++ {
		// Start the window at a fresh TC emission, so both series are
		// under way.
		log.mu.Lock()
		seen := len(log.tcs)
		log.mu.Unlock()
		var from time.Time
		for deadline := time.Now().Add(5 * time.Second); from.IsZero(); time.Sleep(time.Millisecond) {
			log.mu.Lock()
			if len(log.tcs) > seen {
				from = log.tcs[seen]
			}
			log.mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatal("node 1 originates no TC")
			}
		}
		var stall time.Duration // the longest the host kept this goroutine off the CPU
		blocks := 0
		for prev := time.Now(); prev.Before(from.Add(span + 50*time.Millisecond)); {
			time.Sleep(5 * time.Millisecond)
			stall = max(stall, time.Since(prev)-5*time.Millisecond)
			if blocks < 6 && time.Since(from) > time.Duration(blocks+1)*span/8 {
				blocks++
				if err := m.daemons[2].Send(1, []byte("block")); err != nil {
					t.Fatal(err)
				}
			}
			prev = time.Now()
		}
		log.mu.Lock()
		hellos, tcs := within(log.hellos, from, span), within(log.tcs, from, span)
		log.mu.Unlock()
		if hellos >= 39 && hellos <= 41 && tcs >= 15 && tcs <= 17 {
			return
		}
		if stall < 20*time.Millisecond || attempt == 5 {
			t.Fatalf("%d HELLOs and %d TCs in %v at 50 ms / 125 ms, want 40±1 and 16±1 (worst host stall %v)",
				hellos, tcs, span, stall)
		}
		t.Logf("attempt %d: %d HELLOs, %d TCs, but the host stalled for %v; measuring again", attempt, hellos, tcs, stall)
	}
}
