package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

// mesh spins one daemon per topology entry over a shared fabric and tears
// everything down with the test.
type mesh struct {
	daemons map[int64]*Daemon
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// delivery is one data packet that reached its destination.
type delivery struct {
	at, src int64
	seq     uint64
	body    string
}

// startMesh launches daemons over mn with the given adjacency (ids must be
// symmetric: if a lists b, b must list a for links to form). Delivered data
// packets go to sink when non-nil; tweak functions edit each daemon's
// Config before New.
func startMesh(t testing.TB, mn *MemNetwork, adj map[int64][]int64, measured bool, sink chan delivery, tweak ...func(id int64, cfg *Config)) *mesh {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	m := &mesh{daemons: make(map[int64]*Daemon), cancel: cancel}
	addr := func(id int64) string { return fmt.Sprintf("n%d", id) }
	for id, peers := range adj {
		tr, err := mn.Listen(addr(id))
		if err != nil {
			t.Fatal(err)
		}
		var ps []Peer
		for _, p := range peers {
			ps = append(ps, Peer{ID: p, Addr: addr(p)})
		}
		id := id
		cfg := Config{
			ID:            id,
			Transport:     tr,
			Peers:         ps,
			HelloInterval: 50 * time.Millisecond,
			TCInterval:    120 * time.Millisecond,
			Measured:      measured,
			OnData: func(src int64, seq uint64, body []byte) {
				if sink != nil {
					sink <- delivery{at: id, src: src, seq: seq, body: string(body)}
				}
			},
		}
		for _, f := range tweak {
			f(id, &cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.daemons[id] = d
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			d.Run(ctx)
		}()
	}
	t.Cleanup(m.stop)
	return m
}

func (m *mesh) stop() {
	m.cancel()
	m.wg.Wait()
}

// waitConverged polls until every daemon has a route to every other, or the
// deadline passes.
func (m *mesh) waitConverged(t testing.TB, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		missing := 0
		for id, d := range m.daemons {
			st, err := d.Status()
			if err != nil {
				t.Fatal(err)
			}
			have := make(map[int64]bool, len(st.Routes))
			for _, r := range st.Routes {
				have[r.Dst] = true
			}
			for other := range m.daemons {
				if other != id && !have[other] {
					missing++
				}
			}
		}
		if missing == 0 {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("not converged after %v: %d missing routes", deadline, missing)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// line returns the adjacency of a path graph 1-2-...-n.
func line(n int64) map[int64][]int64 {
	adj := make(map[int64][]int64)
	for i := int64(1); i <= n; i++ {
		if i > 1 {
			adj[i] = append(adj[i], i-1)
		}
		if i < n {
			adj[i] = append(adj[i], i+1)
		}
	}
	return adj
}

// TestDaemonLineConvergesAndRoutes converges a 1-2-3 line in measured mode
// and routes a packet end to end: 1 has no link to 3, so delivery proves
// multi-hop forwarding through 2's table.
func TestDaemonLineConvergesAndRoutes(t *testing.T) {
	sink := make(chan delivery, 16)
	m := startMesh(t, NewMemNetwork(), line(3), true, sink)
	m.waitConverged(t, 10*time.Second)

	st, err := m.daemons[1].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "measured" || st.Metric != "delay" {
		t.Fatalf("mode=%q metric=%q, want measured/delay", st.Mode, st.Metric)
	}
	// The measured link must carry an RTT-derived weight.
	var linked bool
	for _, nb := range st.Neighbors {
		if nb.ID == 2 {
			linked = nb.Linked
			if nb.Weight <= 0 {
				t.Fatalf("link 1-2 weight = %v, want > 0", nb.Weight)
			}
			if nb.RTTms <= 0 {
				t.Fatalf("link 1-2 rtt = %v, want > 0", nb.RTTms)
			}
		}
	}
	if !linked {
		t.Fatal("node 1 never proved its link to 2")
	}
	// Route 1->3 must go through 2.
	var via int64
	for _, r := range st.Routes {
		if r.Dst == 3 {
			via = r.NextHop
			if r.Hops != 2 {
				t.Fatalf("route 1->3 hops = %d, want 2", r.Hops)
			}
		}
	}
	if via != 2 {
		t.Fatalf("route 1->3 next hop = %d, want 2", via)
	}

	if err := m.daemons[1].Send(3, []byte("end to end")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-sink:
		want := delivery{at: 3, src: 1, seq: 0, body: "end to end"}
		if got != want {
			t.Fatalf("delivered %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet never delivered")
	}
	// The middle node's counters must show the forward.
	st2, err := m.daemons[2].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats.DataForwarded == 0 {
		t.Fatal("node 2 forwarded nothing; packet did not ride the tables")
	}
}

// TestDaemonOracleWeights checks that declared peer weights drive routing
// when measurement is off: with the direct 1-3 link weighing 10 and the
// 1-2, 2-3 links weighing 1 each, delay routing must prefer the two-hop
// path.
func TestDaemonOracleWeights(t *testing.T) {
	mn := NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait() // LIFO: cancel below runs first, so the daemons exit
	defer cancel()

	mk := func(id int64, peers []Peer) *Daemon {
		tr, err := mn.Listen(fmt.Sprintf("n%d", id))
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(Config{
			ID: id, Transport: tr, Peers: peers,
			HelloInterval: 50 * time.Millisecond,
			TCInterval:    120 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); d.Run(ctx) }()
		return d
	}
	d1 := mk(1, []Peer{{ID: 2, Addr: "n2"}, {ID: 3, Addr: "n3", Weight: 10}})
	mk(2, []Peer{{ID: 1, Addr: "n1"}, {ID: 3, Addr: "n3"}})
	mk(3, []Peer{{ID: 1, Addr: "n1", Weight: 10}, {ID: 2, Addr: "n2"}})

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d1.Status()
		if err != nil {
			t.Fatal(err)
		}
		var r *RouteStatus
		for i := range st.Routes {
			if st.Routes[i].Dst == 3 {
				r = &st.Routes[i]
			}
		}
		if r != nil && r.NextHop == 2 && r.Value == 2 && r.Hops == 2 {
			return // the cheap two-hop path won
		}
		if time.Now().After(deadline) {
			t.Fatalf("route 1->3 never settled on the cheap path: %+v", r)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonIgnoresHostileInput feeds a daemon garbage, foreign-sender
// frames and spoofed HELLOs; it must count and drop them all without
// touching protocol state.
func TestDaemonIgnoresHostileInput(t *testing.T) {
	mn := NewMemNetwork()
	m := startMesh(t, mn, map[int64][]int64{1: {2}, 2: {1}}, false, nil)
	attacker, err := mn.Listen("attacker")
	if err != nil {
		t.Fatal(err)
	}
	// Raw garbage.
	attacker.Send("n1", []byte("not a frame at all"))
	// A valid frame from an unknown sender.
	buf, err := MarshalFrame(&Frame{Kind: KindControl, Sender: 666, TxTime: 1, Payload: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	attacker.Send("n1", buf)
	// A spoofed HELLO: frame sender 2 (a real peer), HELLO origin 666.
	spoof, err := MarshalFrame(&Frame{Kind: KindControl, Sender: 2, TxTime: 1,
		Payload: olsr.MarshalHello(&olsr.Hello{Origin: 666})})
	if err != nil {
		t.Fatal(err)
	}
	attacker.Send("n1", spoof)
	// A well-formed TC-DELTA from a real peer: a type the daemon does not
	// carry, counted rather than silently dropped.
	delta, err := MarshalFrame(&Frame{Kind: KindControl, Sender: 2, TxTime: 1,
		Payload: olsr.MarshalTCDelta(&olsr.TCDelta{Origin: 2, FullSeq: 1, Index: 1})})
	if err != nil {
		t.Fatal(err)
	}
	attacker.Send("n1", delta)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.daemons[1].Status()
		if err != nil {
			t.Fatal(err)
		}
		// The status JSON folds unsupported types into DecodeErrors: the raw
		// garbage and the TC-DELTA make two.
		if st.Stats.DecodeErrors >= 2 && m.daemons[1].metrics.unsupported.Value() >= 1 && st.Stats.UnknownSender >= 1 && st.Stats.SpoofRejects >= 1 {
			for _, nb := range st.Neighbors {
				if nb.ID == 666 {
					t.Fatal("attacker appeared in the neighbor table")
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hostile input not accounted: %+v", st.Stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonDupWindow: the middle of a three-chain is both ends' MPR. A TC
// reaching it from both reaches HandleTC and is re-flooded once, and the
// same (origin, seq) a hold time later is ingested as new, also when a
// sweep in between kept its key.
func TestDaemonDupWindow(t *testing.T) {
	c := newChain(t, 3, nil)
	mid := c.daemons[1]
	deliver := func(from int64, tc *olsr.TC, at time.Time) {
		t.Helper()
		frame, err := MarshalFrame(&Frame{Kind: KindControl, Sender: from, TxTime: 1, Payload: olsr.MarshalTC(tc)})
		if err != nil {
			t.Fatal(err)
		}
		mid.handleFrame(Inbound{From: fmt.Sprintf("n%d", from), Data: frame, At: at})
	}
	ingested := func() uint64 {
		s := mid.node.RebuildStats()
		return s.AdvRefresh + s.AdvChange
	}
	links := []olsr.LinkInfo{{Neighbor: 1, Weight: 2}}
	tc := &olsr.TC{Origin: 7, Seq: 40, ANSN: 1, Links: links}
	in0, fwd0, ing0 := mid.metrics.tcsIn.Value(), mid.metrics.tcsForwarded.Value(), ingested()
	deliver(1, tc, time.Now())
	first := mid.last
	deliver(3, tc, time.Now())
	if in, fwd, ing := mid.metrics.tcsIn.Value()-in0, mid.metrics.tcsForwarded.Value()-fwd0, ingested()-ing0; in != 2 || fwd != 1 || ing != 1 {
		t.Fatalf("two copies: %d received, %d forwarded, %d ingested; want 2, 1, 1", in, fwd, ing)
	}
	for _, tr := range []*MemTransport{c.trs[0], c.trs[2]} {
		if len(tr.in) != 1 {
			t.Fatalf("%s got %d re-flooded frames, want 1", tr.addr, len(tr.in))
		}
		freeFrame((<-tr.in).Data)
	}
	if mid.dups.sweepAt >= first+mid.dups.hold {
		t.Fatal("no sweep falls due before the key expires")
	}
	deliver(1, &olsr.TC{Origin: 8, Seq: 1, ANSN: 1, Links: links}, mid.start.Add(mid.dups.sweepAt))
	deliver(1, tc, mid.start.Add(first+mid.dups.hold))
	if ing := ingested() - ing0; ing != 3 {
		t.Fatalf("after the hold time: %d ingested, want 3", ing)
	}
}

// TestDuplicateTCSkipsDecode: a TC the daemon already handed its node is
// counted and dropped off its fixed header, so taking the copy again
// allocates nothing.
func TestDuplicateTCSkipsDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	mid := newChain(t, 3, nil).daemons[1]
	payload := olsr.MarshalTC(&olsr.TC{Origin: 7, Seq: 40, ANSN: 1, Links: []olsr.LinkInfo{{Neighbor: 1, Weight: 2}}})
	now := mid.now()
	mid.handleControl(mid.peers[1], payload, now)
	in0 := mid.metrics.tcsIn.Value()
	if allocs := testing.AllocsPerRun(100, func() { mid.handleControl(mid.peers[3], payload, now) }); allocs != 0 {
		t.Errorf("a duplicate TC allocates %v times, want 0", allocs)
	}
	if in := mid.metrics.tcsIn.Value() - in0; in < 100 {
		t.Errorf("%d duplicates counted in tcs_in, want every one", in)
	}
}

// TestMalformedTCCannotShadow: a copy whose fixed header names (origin, seq)
// but whose body does not decode records no key, so the valid copy after it
// is ingested, once.
func TestMalformedTCCannotShadow(t *testing.T) {
	mid := newChain(t, 3, nil).daemons[1]
	ingested := func() uint64 {
		s := mid.node.RebuildStats()
		return s.AdvRefresh + s.AdvChange
	}
	payload := olsr.MarshalTC(&olsr.TC{Origin: 7, Seq: 40, ANSN: 1, Links: []olsr.LinkInfo{{Neighbor: 1, Weight: 2}}})
	now, ing0, bad0 := mid.now(), ingested(), mid.metrics.decodeErrors.Value()
	mid.handleControl(mid.peers[1], payload[:len(payload)-1], now)
	for _, from := range []int64{1, 3} {
		mid.handleControl(mid.peers[from], payload, now)
	}
	if ing, bad := ingested()-ing0, mid.metrics.decodeErrors.Value()-bad0; ing != 1 || bad != 1 {
		t.Fatalf("a truncated copy, then two valid ones: %d ingested, %d decode errors; want 1, 1", ing, bad)
	}
}

// TestDupWindowBounded feeds the window TCs from ever-new origins: it holds
// the sightings of the last two holds, not of every origin ever heard, and
// drains to the one fresh key after silence.
func TestDupWindowBounded(t *testing.T) {
	const (
		hold      = 3 * time.Second
		perSecond = 1000
		window    = perSecond * int(hold/time.Second)
	)
	w := dupWindow{hold: hold, until: make(map[dupKey]time.Duration)}
	now := time.Duration(0)
	// handOver is what handleControl does with a copy that decodes.
	handOver := func(origin int64, seq uint16) bool {
		dup := w.seen(origin, seq, now)
		w.until[dupKey{origin, seq}] = now + hold
		return dup
	}
	for i := 0; i < 100_000; i++ {
		if i%perSecond == 0 {
			now += time.Second
		}
		if handOver(int64(1_000_000+i), uint16(i)) {
			t.Fatalf("origin %d: first sighting reported as a duplicate", i)
		}
		if len(w.until) > 2*window+perSecond {
			t.Fatalf("after %d origins: %d keys, live window %d", i+1, len(w.until), window)
		}
	}
	now += hold
	handOver(5, 1)
	if len(w.until) != 1 {
		t.Fatalf("after silence: %d keys, want the one fresh origin", len(w.until))
	}
}

// TestStatusEndpoint serves the HTTP status handler and decodes the JSON.
func TestStatusEndpoint(t *testing.T) {
	m := startMesh(t, NewMemNetwork(), line(2), true, nil)
	m.waitConverged(t, 10*time.Second)
	srv := httptest.NewServer(m.daemons[1].StatusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 1 || len(st.Routes) != 1 || st.Routes[0].Dst != 2 {
		t.Fatalf("unexpected status over HTTP: %+v", st)
	}
}

// TestMetricsEndpoint scrapes /metrics off the status listener: the
// Prometheus text must carry the daemon's frame counters, the RTT histogram
// and the gauges, and the values must agree with the status report (both
// read the same registry cells).
func TestMetricsEndpoint(t *testing.T) {
	m := startMesh(t, NewMemNetwork(), line(2), true, nil)
	m.waitConverged(t, 10*time.Second)
	srv := httptest.NewServer(m.daemons[1].StatusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`qolsr_node_frames_total{dir="in"}`,
		`qolsr_node_frames_total{dir="out"}`,
		`qolsr_node_ctrl_in_total{type="hello"}`,
		"qolsr_node_rtt_seconds_count",
		"qolsr_node_neighbors_linked",
		"qolsr_node_routes",
		"qolsr_node_uptime_seconds",
		"qolsr_node_transport_drops_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// The scrape and the status JSON read the same cells: frames_in on
	// /metrics must be at least the value the (earlier) status snapshot saw.
	st, err := m.daemons[1].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.FramesIn == 0 || st.Stats.HellosIn == 0 {
		t.Fatalf("status stats not registry-backed: %+v", st.Stats)
	}
	re := regexp.MustCompile(`qolsr_node_ctrl_in_total\{type="hello"\} (\d+)`)
	match := re.FindStringSubmatch(text)
	if match == nil {
		t.Fatal("hello counter sample not found in exposition")
	}
	if n, _ := strconv.ParseUint(match[1], 10, 64); n == 0 || n > st.Stats.HellosIn {
		t.Errorf("scraped hellos=%d, later status=%d; want 0 < scraped <= status", n, st.Stats.HellosIn)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{ID: 1}); err == nil {
		t.Fatal("accepted nil transport")
	}
	mn := NewMemNetwork()
	tr, _ := mn.Listen("a")
	if _, err := New(Config{ID: 1, Transport: tr, Peers: []Peer{{ID: 1, Addr: "a"}}}); err == nil {
		t.Fatal("accepted self in peer table")
	}
	if _, err := New(Config{ID: 1, Transport: tr,
		Peers: []Peer{{ID: 2, Addr: "b"}, {ID: 2, Addr: "c"}}}); err == nil {
		t.Fatal("accepted duplicate peer id")
	}
	if _, err := New(Config{ID: 1, Transport: tr, Metric: metric.Delay()}); err != nil {
		t.Fatalf("rejected minimal valid config: %v", err)
	}
}
