package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopbackMesh is the acceptance harness for the daemon subsystem: 20
// in-process daemons on real 127.0.0.1 UDP ports, wired as a chorded ring
// (each node peers with its ring neighbors at distance 1 and 2, so the mesh
// is multi-hop: diameter 5), running RTT-measured QoS. It must fully
// converge — every ordered pair of daemons holds a route — within 30
// seconds of wall clock, then deliver at least 99% of live data packets
// routed hop by hop through the daemons' own tables.
func TestLoopbackMesh(t *testing.T) {
	const (
		n                = 20
		helloInterval    = 100 * time.Millisecond
		tcInterval       = 250 * time.Millisecond
		convergeDeadline = 30 * time.Second
	)

	// Bind all sockets first so every peer table can name real ports.
	transports := make([]*UDPTransport, n)
	addrs := make([]string, n)
	for i := range transports {
		tr, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[i] = tr.LocalAddr()
	}

	// delivered counts data packets that reached their addressed daemon.
	var delivered atomic.Uint64
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait() // LIFO: cancel below runs first, so the daemons exit
	defer cancel()

	id := func(i int) int64 { return int64(i + 1) }
	daemons := make([]*Daemon, n)
	for i := range daemons {
		var peers []Peer
		for _, d := range []int{-2, -1, 1, 2} {
			j := ((i+d)%n + n) % n
			peers = append(peers, Peer{ID: id(j), Addr: addrs[j]})
		}
		d, err := New(Config{
			ID:            id(i),
			Transport:     transports[i],
			Peers:         peers,
			HelloInterval: helloInterval,
			TCInterval:    tcInterval,
			Measured:      true,
			OnData: func(src int64, seq uint64, body []byte) {
				delivered.Add(1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Run(ctx)
		}()
	}

	// Phase 1: convergence. Every pair must hold a route within the
	// acceptance deadline.
	start := time.Now()
	for {
		missing := 0
		for i, d := range daemons {
			st, err := d.Status()
			if err != nil {
				t.Fatal(err)
			}
			have := make(map[int64]bool, len(st.Routes))
			for _, r := range st.Routes {
				have[r.Dst] = true
			}
			for j := range daemons {
				if j != i && !have[id(j)] {
					missing++
				}
			}
		}
		if missing == 0 {
			break
		}
		if time.Since(start) > convergeDeadline {
			t.Fatalf("mesh not converged after %v: %d of %d pair routes missing",
				convergeDeadline, missing, n*(n-1))
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("20-daemon mesh converged in %v", time.Since(start))

	// Sanity: the chords keep the mesh genuinely multi-hop — node 1 must
	// reach the far side of the ring through an intermediate.
	st, err := daemons[0].Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Routes {
		if r.Dst == id(n/2) && r.Hops < 2 {
			t.Fatalf("route 1->%d has %d hops; topology is not multi-hop", id(n/2), r.Hops)
		}
	}

	// Phase 2: live traffic. Every daemon sends one packet to every other
	// node; packets ride the daemons' own routing tables hop by hop.
	var sent, unrouted uint64
	for i, d := range daemons {
		for j := range daemons {
			if i == j {
				continue
			}
			sent++
			if err := d.Send(id(j), []byte(fmt.Sprintf("pkt %d->%d", id(i), id(j)))); err != nil {
				unrouted++
			}
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < sent-unrouted && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if ratio := float64(delivered.Load()) / float64(sent); ratio < 0.99 {
		// Say why: which daemons dropped, and for which reason.
		for _, d := range daemons {
			if st, err := d.Status(); err == nil && st.Stats.DataDropped > 0 {
				t.Logf("node %d dropped %d (%d of them TTL deaths)", st.ID, st.Stats.DataDropped, st.Stats.DataLooped)
			}
		}
		t.Fatalf("delivered %d of %d data packets (%.1f%%, %d unrouted); want >= 99%%",
			delivered.Load(), sent, 100*ratio, unrouted)
	}
	t.Logf("delivered %d/%d data packets through daemon tables", delivered.Load(), sent)

	// The mesh must be forwarding, not short-circuiting: with diameter 5,
	// a large share of pairs are multi-hop, so intermediate daemons must
	// show forwarded traffic.
	var forwarded, looped uint64
	for _, d := range daemons {
		st, err := d.Status()
		if err != nil {
			t.Fatal(err)
		}
		forwarded += st.Stats.DataForwarded
		looped += st.Stats.DataLooped
	}
	t.Logf("%d data packets died of TTL across the mesh", looped)
	if forwarded == 0 {
		t.Fatal("no daemon forwarded data; traffic did not ride the mesh")
	}
}
