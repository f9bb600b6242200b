package node

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Inbound is one received datagram: the raw bytes, the source address they
// arrived from, and the arrival instant. Frames authenticate their sender by
// the header's node identifier, not by address — the address is
// informational. At is stamped by the transport the moment the datagram
// leaves the wire, before it waits in the receive channel: round-trip
// measurement must not charge the link for time the receiver's event loop
// spent busy. Data belongs to whoever takes the Inbound off the channel; a
// daemon hands it back to the package's free list once the frame is handled.
type Inbound struct {
	From string
	Data []byte
	At   time.Time
}

// Transport moves datagrams between daemons. Implementations deliver
// best-effort (sends to unreachable or unknown addresses may vanish
// silently, like UDP) and surface received datagrams on a channel the
// daemon's event loop selects on. The channel closes when the transport
// closes.
type Transport interface {
	// Send transmits one datagram to the given address. It must not keep
	// frame past the call: the daemon reuses the bytes.
	Send(addr string, frame []byte) error
	// Inbound returns the receive channel. It is closed on Close.
	Inbound() <-chan Inbound
	// LocalAddr returns the address peers should send to.
	LocalAddr() string
	// Close releases the transport and closes the inbound channel.
	Close() error
}

// inboundBuffer is the receive-channel depth: past it, like any radio whose
// listener has fallen behind, datagrams drop.
const inboundBuffer = 1024

const frameBufSize = 2048

// frameBufs is the package's one free list of receive buffers, frameBufSize
// bytes each (any frame at a sane MTU fits; a larger datagram gets a plain
// allocation). Transports copy every received datagram into one; the run
// loop returns it after handleFrame (doc.go has the ownership rules).
var frameBufs = sync.Pool{New: func() any { return new([frameBufSize]byte) }}

// copyFrame returns a receiver-owned copy of one received datagram.
func copyFrame(data []byte) []byte {
	if len(data) > frameBufSize {
		return append([]byte(nil), data...)
	}
	buf := frameBufs.Get().(*[frameBufSize]byte)
	return buf[:copy(buf[:], data)]
}

// freeFrame recycles a copyFrame buffer; the caller keeps no reference.
func freeFrame(data []byte) {
	if cap(data) == frameBufSize {
		frameBufs.Put((*[frameBufSize]byte)(data[:frameBufSize]))
	}
}

// UDPTransport is the real-socket Transport: one bound UDP socket, a reader
// goroutine feeding the inbound channel, and a cache of resolved peer
// addresses.
type UDPTransport struct {
	conn *net.UDPConn
	in   chan Inbound

	drops atomic.Uint64

	mu       sync.Mutex
	resolved map[string]netip.AddrPort

	closeOnce sync.Once
	closeErr  error
}

// ListenUDP binds a UDP socket on addr (e.g. "127.0.0.1:0" for an ephemeral
// loopback port) and starts receiving.
func ListenUDP(addr string) (*UDPTransport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("node: listen %q: %w", addr, err)
	}
	t := &UDPTransport{
		conn:     conn,
		in:       make(chan Inbound, inboundBuffer),
		resolved: make(map[string]netip.AddrPort),
	}
	go t.readLoop()
	return t, nil
}

// unmap strips the 4-in-6 form the resolver and a dual-stack socket may
// hold: an IPv4 socket refuses to send to it, and peers name plain IPv4.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (t *UDPTransport) readLoop() {
	defer close(t.in)
	buf := make([]byte, MaxPayload+frameHeaderLen+1)
	// names caches the From string per source, dropped wholesale once a port
	// scan (or an attacker) has filled it with strangers.
	names := make(map[netip.AddrPort]string)
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			// The socket closed (or broke): end the stream.
			return
		}
		name, ok := names[from]
		if !ok {
			if len(names) >= inboundBuffer {
				clear(names)
			}
			name = unmap(from).String()
			names[from] = name
		}
		data := copyFrame(buf[:n])
		select {
		case t.in <- Inbound{From: name, Data: data, At: time.Now()}:
		default:
			t.drops.Add(1)
			freeFrame(data)
		}
	}
}

// Send implements Transport.
func (t *UDPTransport) Send(addr string, frame []byte) error {
	t.mu.Lock()
	ap, ok := t.resolved[addr]
	t.mu.Unlock()
	if !ok {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("node: resolve %q: %w", addr, err)
		}
		ap = unmap(ua.AddrPort())
		t.mu.Lock()
		t.resolved[addr] = ap
		t.mu.Unlock()
	}
	_, err := t.conn.WriteToUDPAddrPort(frame, ap)
	return err
}

// Inbound implements Transport.
func (t *UDPTransport) Inbound() <-chan Inbound { return t.in }

// LocalAddr implements Transport. After binding port 0 it reports the
// kernel-assigned port.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Drops reports datagrams discarded because the inbound channel was full.
func (t *UDPTransport) Drops() uint64 { return t.drops.Load() }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.conn.Close() })
	return t.closeErr
}
