package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MemNetwork is an in-process datagram fabric for tests: a set of named
// endpoints exchanging frames with UDP semantics — best-effort, unordered
// across senders but FIFO per (sender, receiver) pair, silently void toward
// addresses nobody listens on — without sockets, so daemon logic is testable
// hermetically and deterministically.
type MemNetwork struct {
	mu  sync.RWMutex
	eps map[string]*MemTransport
}

// NewMemNetwork returns an empty fabric.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{eps: make(map[string]*MemTransport)}
}

// Listen claims an address on the fabric.
func (mn *MemNetwork) Listen(addr string) (*MemTransport, error) {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	if _, taken := mn.eps[addr]; taken {
		return nil, fmt.Errorf("node: memnet address %q already bound", addr)
	}
	t := &MemTransport{
		net:  mn,
		addr: addr,
		in:   make(chan Inbound, inboundBuffer),
	}
	mn.eps[addr] = t
	return t, nil
}

// deliver routes one frame to the destination endpoint. It runs on the
// sender's goroutine under the fabric's read lock: a sender is one goroutine,
// so its frames to one receiver arrive in send order, and the held read lock
// keeps Close from closing the channel under the send. A full receive buffer
// drops the frame, as does a closed or unknown destination — exactly UDP's
// contract.
func (mn *MemNetwork) deliver(from, to string, frame []byte) {
	mn.mu.RLock()
	defer mn.mu.RUnlock()
	dst := mn.eps[to]
	if dst == nil {
		return
	}
	data := copyFrame(frame)
	select {
	case dst.in <- Inbound{From: from, Data: data, At: time.Now()}:
	default:
		dst.drops.Add(1)
		freeFrame(data)
	}
}

// MemTransport is one endpoint of a MemNetwork.
type MemTransport struct {
	net   *MemNetwork
	addr  string
	in    chan Inbound
	drops atomic.Uint64
}

// Send implements Transport.
func (t *MemTransport) Send(addr string, frame []byte) error {
	t.net.deliver(t.addr, addr, frame)
	return nil
}

// Inbound implements Transport.
func (t *MemTransport) Inbound() <-chan Inbound { return t.in }

// LocalAddr implements Transport.
func (t *MemTransport) LocalAddr() string { return t.addr }

// Drops reports frames discarded at this endpoint's full receive buffer.
func (t *MemTransport) Drops() uint64 { return t.drops.Load() }

// Close implements Transport: the endpoint leaves the fabric and the inbound
// channel closes. Frames in flight toward it are dropped.
func (t *MemTransport) Close() error {
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	if t.net.eps[t.addr] == t {
		delete(t.net.eps, t.addr)
		close(t.in)
	}
	return nil
}

// Compile-time interface compliance checks.
var (
	_ Transport = (*UDPTransport)(nil)
	_ Transport = (*MemTransport)(nil)
)
