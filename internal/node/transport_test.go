package node

import (
	"fmt"
	"testing"
	"time"
)

// TestMemNetworkFIFOPerSender locks the fabric's delivery contract: frames
// from one sender to one receiver arrive in send order, even when another
// sender interleaves.
func TestMemNetworkFIFOPerSender(t *testing.T) {
	mn := NewMemNetwork()
	rx, err := mn.Listen("rx")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := mn.Listen("a")
	b, _ := mn.Listen("b")
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("rx", []byte(fmt.Sprintf("a-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := b.Send("rx", []byte(fmt.Sprintf("b-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var nextA, nextB int
	for i := 0; i < 2*n; i++ {
		select {
		case in := <-rx.Inbound():
			switch in.From {
			case "a":
				want := fmt.Sprintf("a-%03d", nextA)
				if string(in.Data) != want {
					t.Fatalf("from a: got %q, want %q", in.Data, want)
				}
				nextA++
			case "b":
				want := fmt.Sprintf("b-%03d", nextB)
				if string(in.Data) != want {
					t.Fatalf("from b: got %q, want %q", in.Data, want)
				}
				nextB++
			default:
				t.Fatalf("unknown sender %q", in.From)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out after %d deliveries", i)
		}
	}
	if nextA != n || nextB != n {
		t.Fatalf("delivered a=%d b=%d, want %d each", nextA, nextB, n)
	}
}

func TestMemNetworkSemantics(t *testing.T) {
	mn := NewMemNetwork()
	a, err := mn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mn.Listen("a"); err == nil {
		t.Fatal("double bind accepted")
	}
	// Sends to nowhere vanish silently, like UDP.
	if err := a.Send("ghost", []byte("x")); err != nil {
		t.Fatalf("send to unknown addr: %v", err)
	}
	// Frames are copied on delivery: mutating the sent buffer afterwards
	// must not corrupt the receiver's view.
	b, _ := mn.Listen("b")
	buf := []byte("fresh")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "stale")
	in := <-b.Inbound()
	if string(in.Data) != "fresh" {
		t.Fatalf("delivered frame aliases sender buffer: %q", in.Data)
	}
	// Close ends the stream exactly once.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.Inbound(); ok {
		t.Fatal("inbound channel still open after Close")
	}
}

// TestUDPTransportLoopback exercises the real-socket transport: bind two
// ephemeral loopback ports, exchange datagrams both ways, then close and
// observe the stream end.
func TestUDPTransportLoopback(t *testing.T) {
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

	if err := a.Send(b.LocalAddr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-b.Inbound():
		if string(in.Data) != "ping" {
			t.Fatalf("got %q, want ping", in.Data)
		}
		if in.From != a.LocalAddr() {
			t.Fatalf("from %q, want %q", in.From, a.LocalAddr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never arrived")
	}
	if err := b.Send(a.LocalAddr(), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-a.Inbound():
		if string(in.Data) != "pong" {
			t.Fatalf("got %q, want pong", in.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply never arrived")
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-a.Inbound():
		if ok {
			t.Fatal("unexpected datagram after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inbound channel not closed after Close")
	}
}

func TestParsePeerList(t *testing.T) {
	peers, err := ParsePeerList("2@127.0.0.1:9002, 3@127.0.0.1:9003#2.5,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{
		{ID: 2, Addr: "127.0.0.1:9002"},
		{ID: 3, Addr: "127.0.0.1:9003", Weight: 2.5},
	}
	if len(peers) != len(want) {
		t.Fatalf("got %d peers, want %d", len(peers), len(want))
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peer %d = %+v, want %+v", i, peers[i], want[i])
		}
	}
	for _, bad := range []string{"nope", "x@1:2", "1@", "1@addr#w"} {
		if _, err := ParsePeerList(bad); err == nil {
			t.Fatalf("ParsePeerList(%q) accepted", bad)
		}
	}
}
