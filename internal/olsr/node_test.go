package olsr

import (
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/mpr"
)

func testConfig() Config {
	return DefaultConfig(metric.Bandwidth())
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(1, Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := testConfig()
	cfg.Metric = nil
	if _, err := NewNode(1, cfg); err == nil {
		t.Error("nil metric accepted")
	}
	// An unknown heuristic would select no relays, so the node would never
	// forward a flood; the field is rejected instead.
	for _, set := range []func(*Config){
		func(c *Config) { c.MPRHeuristic = mpr.Heuristic(9) },
		func(c *Config) { c.MPRHeuristic = mpr.Heuristic(-1) },
		func(c *Config) { c.FloodRelay = mpr.Heuristic(-1) },
		func(c *Config) { c.FloodRelay = mpr.MinCover + 1 },
	} {
		cfg := testConfig()
		set(&cfg)
		if _, err := NewNodes([]int64{1, 2}, cfg); err == nil {
			t.Errorf("heuristics %v / flood relay %v accepted", cfg.MPRHeuristic, cfg.FloodRelay)
		}
	}
	cfg = testConfig()
	cfg.FloodRelay = mpr.MinCover
	if _, err := NewNode(1, cfg); err != nil {
		t.Errorf("min-cover flood relays rejected: %v", err)
	}
	n, err := NewNode(1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 1 {
		t.Error("id not set")
	}
}

func TestHelloCarriesLinksAndMPRs(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	n.UpdateLink(2, 5, 0)
	n.UpdateLink(3, 7, 0)
	h := n.GenerateHello(0)
	if h.Origin != 1 {
		t.Error("origin wrong")
	}
	if len(h.Links) != 2 || h.Links[0].Neighbor != 2 || h.Links[1].Neighbor != 3 {
		t.Errorf("links = %+v", h.Links)
	}
	h2 := n.GenerateHello(time.Second)
	if h2.Seq != h.Seq+1 {
		t.Error("hello seq did not increment")
	}
}

func TestLinkExpiry(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	n.UpdateLink(2, 5, 0)
	h := n.GenerateHello(time.Second)
	if len(h.Links) != 1 {
		t.Fatal("fresh link missing")
	}
	// Past the neighbor hold time the link must vanish.
	h = n.GenerateHello(10 * time.Second)
	if len(h.Links) != 0 {
		t.Error("stale link still advertised")
	}
}

// Two-node handshake: receiving a HELLO that lists us refreshes the link and
// records the neighbor's table.
func TestHandleHelloLearnsLink(t *testing.T) {
	a, _ := NewNode(1, testConfig())
	b, _ := NewNode(2, testConfig())
	a.UpdateLink(2, 5, 0)
	b.HandleHello(a.GenerateHello(0), 0)
	// b now knows the link 1-2 from a's HELLO.
	hb := b.GenerateHello(time.Millisecond)
	if len(hb.Links) != 1 || hb.Links[0].Neighbor != 1 || hb.Links[0].Weight != 5 {
		t.Errorf("b's links = %+v, want link to 1 at weight 5", hb.Links)
	}
}

// Line topology a-b-c: after exchanging HELLOs, a's ANS must select b (the
// only access to c), and a's TC must advertise it.
func TestThreeNodeANSAndTC(t *testing.T) {
	cfg := testConfig()
	a, _ := NewNode(1, cfg)
	b, _ := NewNode(2, cfg)
	c, _ := NewNode(3, cfg)
	now := time.Duration(0)
	a.UpdateLink(2, 5, now)
	b.UpdateLink(1, 5, now)
	b.UpdateLink(3, 7, now)
	c.UpdateLink(2, 7, now)

	// Two HELLO rounds so 2-hop knowledge settles.
	for round := 0; round < 2; round++ {
		now += 100 * time.Millisecond
		ha, hb, hc := a.GenerateHello(now), b.GenerateHello(now), c.GenerateHello(now)
		b.HandleHello(ha, now)
		a.HandleHello(hb, now)
		c.HandleHello(hb, now)
		b.HandleHello(hc, now)
	}

	ans := a.ANS(now)
	if len(ans) != 1 || ans[0] != 2 {
		t.Errorf("ANS(a) = %v, want [2]", ans)
	}
	mprs := a.MPRSet(now)
	if len(mprs) != 1 || mprs[0] != 2 {
		t.Errorf("MPR(a) = %v, want [2]", mprs)
	}
	tc := a.GenerateTC(now)
	if tc == nil {
		t.Fatal("a generated no TC despite non-empty ANS")
	}
	if len(tc.Links) != 1 || tc.Links[0].Neighbor != 2 || tc.Links[0].Weight != 5 {
		t.Errorf("TC links = %+v", tc.Links)
	}
	// b was selected by a (and c): after hearing their HELLOs again it
	// must know its selectors and forward their TCs.
	now += 100 * time.Millisecond
	b.HandleHello(a.GenerateHello(now), now)
	sel := b.Selectors(now)
	if len(sel) == 0 {
		t.Fatal("b has no selectors")
	}
	forward := b.HandleTC(tc, 1, now)
	if !forward {
		t.Error("b must forward TC from its selector a")
	}
}

func TestGenerateTCNilWhenEmpty(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	if tc := n.GenerateTC(0); tc != nil {
		t.Errorf("TC = %+v, want nil for empty ANS", tc)
	}
}

func TestHandleTCTopologyAndRouting(t *testing.T) {
	// d learns remote topology from TCs: chain 1-2-3-4, d=4 hears TC from
	// 2 advertising {1,3}.
	cfg := testConfig()
	d, _ := NewNode(4, cfg)
	now := time.Duration(0)
	d.UpdateLink(3, 9, now)
	// HELLO from 3 listing its links (3-2 and 3-4).
	d.HandleHello(&Hello{Origin: 3, Seq: 1, Links: []LinkInfo{
		{Neighbor: 2, Weight: 6}, {Neighbor: 4, Weight: 9},
	}}, now)
	// TC from 2 (relayed by 3) advertising links 2-1 and 2-3.
	d.HandleTC(&TC{Origin: 2, ANSN: 1, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 4}, {Neighbor: 3, Weight: 6},
	}}, 3, now)

	table, err := d.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := table.Lookup(1)
	if !ok {
		t.Fatal("no route to node 1")
	}
	if r1.NextHop != 3 || r1.Hops != 3 {
		t.Errorf("route to 1 = %+v, want via 3 in 3 hops", r1)
	}
	// Bottleneck 4-3(9), 3-2(6), 2-1(4) = 4.
	if r1.Value != 4 {
		t.Errorf("route value = %v, want 4", r1.Value)
	}
}

func TestANSNStaleTCDiscarded(t *testing.T) {
	cfg := testConfig()
	n, _ := NewNode(9, cfg)
	now := time.Duration(0)
	n.UpdateLink(1, 5, now)
	n.HandleTC(&TC{Origin: 2, ANSN: 10, Seq: 1, Links: []LinkInfo{{Neighbor: 3, Weight: 7}}}, 1, now)
	// Older ANSN with a new flooding seq: content must not regress.
	n.HandleTC(&TC{Origin: 2, ANSN: 9, Seq: 2, Links: []LinkInfo{{Neighbor: 8, Weight: 1}}}, 1, now)
	n.expire(now)
	g := n.layoutRoutes(new(routeScratch))
	if g.IndexOf(3) < 0 {
		t.Error("fresh topology entry lost")
	}
	if g.IndexOf(8) >= 0 {
		t.Error("stale TC accepted")
	}
	// Newer ANSN replaces.
	n.HandleTC(&TC{Origin: 2, ANSN: 11, Seq: 3, Links: []LinkInfo{{Neighbor: 8, Weight: 1}}}, 1, now)
	n.expire(now)
	g = n.layoutRoutes(new(routeScratch))
	if g.IndexOf(8) < 0 {
		t.Error("newer TC rejected")
	}
}

func TestANSNWrapComparison(t *testing.T) {
	if !ansnNewer(1, 65535) {
		t.Error("wrap-around: 1 should be newer than 65535")
	}
	if ansnNewer(65535, 1) {
		t.Error("wrap-around: 65535 should not be newer than 1")
	}
	if ansnNewer(5, 5) {
		t.Error("equal ANSN is not newer")
	}
}

func TestANSNBumpsOnChange(t *testing.T) {
	cfg := testConfig()
	n, _ := NewNode(1, cfg)
	now := time.Duration(0)
	n.UpdateLink(2, 5, now)
	n.HandleHello(&Hello{Origin: 2, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 5}, {Neighbor: 3, Weight: 7},
	}}, now)
	tc1 := n.GenerateTC(now)
	if tc1 == nil {
		t.Fatal("no TC")
	}
	// New 2-hop neighbor through a different relay changes the ANS.
	n.UpdateLink(4, 9, now)
	n.HandleHello(&Hello{Origin: 4, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 9}, {Neighbor: 5, Weight: 9},
	}}, now)
	tc2 := n.GenerateTC(now)
	if tc2 == nil {
		t.Fatal("no second TC")
	}
	if tc2.ANSN == tc1.ANSN {
		t.Error("ANSN did not change after ANS change")
	}
}
