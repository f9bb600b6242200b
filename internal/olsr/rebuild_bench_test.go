package olsr

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchTopoNode builds one node holding a full n-node topology: direct
// links to its ring neighbors, and one ingested TC per remote origin
// advertising that origin's ring edges plus random chords (~deg mean
// degree). The returned advs slice is the per-origin link block, so a
// benchmark can re-send or perturb individual origins.
func benchTopoNode(b *testing.B, n int, deg float64, seed int64) (*Node, [][]LinkInfo, time.Duration) {
	b.Helper()
	cfg := testConfig()
	cfg.DenseIDs = n
	nd, err := NewNode(0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	now := time.Duration(0)
	nd.UpdateLink(1, 1+rng.Float64()*9, now)
	nd.UpdateLink(int64(n-1), 1+rng.Float64()*9, now)

	// Each origin advertises its two ring neighbors and deg-2 chords; the
	// weight of edge (a, b) is a pure function of the pair, so both
	// endpoints advertise the same value.
	weight := func(a, b int64) float64 {
		if a > b {
			a, b = b, a
		}
		return 1 + float64((a*2654435761+b)%1000)/111
	}
	advs := make([][]LinkInfo, n)
	chords := rand.New(rand.NewSource(seed + 1))
	neighbors := make([]map[int64]bool, n)
	for i := range neighbors {
		neighbors[i] = map[int64]bool{
			int64((i + 1) % n):     true,
			int64((i + n - 1) % n): true,
		}
	}
	extra := int(float64(n) * (deg - 2) / 2)
	for k := 0; k < extra; k++ {
		a, c := chords.Intn(n), chords.Intn(n)
		if a == c {
			continue
		}
		neighbors[a][int64(c)] = true
		neighbors[c][int64(a)] = true
	}
	for i := 1; i < n; i++ {
		var adv []LinkInfo
		for nb := range neighbors[i] {
			adv = append(adv, LinkInfo{Neighbor: nb, Weight: weight(int64(i), nb)})
		}
		adv = normalizeAdv(adv)
		advs[i] = adv
		nd.HandleTC(&TC{Origin: int64(i), ANSN: 1, Seq: uint16(i), Links: adv}, 1, now)
	}
	if _, err := nd.Routes(now); err != nil {
		b.Fatal(err)
	}
	return nd, advs, now
}

// BenchmarkTopologyRebuild measures the two steady-state ingest-and-rebuild
// paths against topology size and density. "refresh" re-sends an origin's
// unchanged link block (the interning fast path: deadline refresh, cached
// table stays valid). "change" flips one origin's link weight and rebuilds
// the routing table from scratch: a fresh layout plus one Dijkstra.
func BenchmarkTopologyRebuild(b *testing.B) {
	for _, n := range []int{250, 1000, 2500} {
		for _, deg := range []float64{6, 12} {
			name := fmt.Sprintf("n=%d/deg=%g", n, deg)
			b.Run(name+"/refresh", func(b *testing.B) {
				nd, advs, now := benchTopoNode(b, n, deg, int64(n))
				origin := int64(n / 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nd.HandleTC(&TC{Origin: origin, ANSN: 1, Seq: uint16(i), Links: advs[origin]}, 1, now)
					if _, err := nd.Routes(now); err != nil {
						b.Fatal(err)
					}
				}
				if s := nd.RebuildStats(); s.AdvChange > uint64(n) {
					b.Fatalf("refresh loop changed topology %d times", s.AdvChange)
				}
			})
			b.Run(name+"/change", func(b *testing.B) {
				nd, advs, now := benchTopoNode(b, n, deg, int64(n))
				origin := int64(n / 2)
				base := advs[origin]
				bumped := append([]LinkInfo(nil), base...)
				bumped[0].Weight++
				variants := [2][]LinkInfo{base, bumped}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nd.HandleTC(&TC{Origin: origin, ANSN: 1, Seq: uint16(i), Links: variants[i%2]}, 1, now)
					if _, err := nd.Routes(now); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
