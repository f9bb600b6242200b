// Package node runs the OLSR/QOLSR protocol machinery of internal/olsr as a
// deployable daemon over real transports: the step from reproduction to
// system.
//
// The simulator drives olsr.Node with virtual timestamps; a Daemon drives the
// very same state machine with wall-clock elapsed time — HELLO and TC
// emission on real timers, soft-state expiry from the monotonic clock, frames
// crossing a Transport (UDP sockets in deployment, an in-memory fabric in
// tests) instead of a simulated radio. The protocol core is untouched: one
// implementation, two clocks.
//
// The pieces:
//
//   - wire.go — the versioned frame layer. Every datagram is a Frame: magic,
//     version, kind (control or data), sender identifier, and the echo
//     timestamp triplet (TxTime/EchoTime/EchoDelay) that lets each link end
//     measure real round-trip time with no clock synchronisation. Control
//     frames carry the olsr HELLO/TC wire encodings unchanged; data frames
//     carry routable DataPackets. Decoding is hardened against hostile
//     input: bad magic, foreign versions, truncations and length mismatches
//     are errors, never panics.
//   - transport.go, memnet.go — the Transport interface with the UDP
//     implementation and the in-memory MemNetwork used by tests (per-sender
//     FIFO delivery, optional loss injection), and the one free list of
//     receive buffers both copy into.
//   - daemon.go, peers.go — the Daemon event loop: a static peer table
//     (node ID → address) standing in for radio range, the flood duplicate
//     window that hands each (origin, seq) TC to the node once, and link
//     sensing.
//     In measured mode (Config.Measured) every round trip the frame echoes
//     close goes to olsr.Node.ObserveRTT, and olsr prices the link under
//     SenseRTT: both ends advertise their windowed-minimum RTT as a ladder
//     rung in the HELLO LQ block and weigh the link at the larger one.
//     Otherwise each HELLO feeds olsr.Node.UpdateLink the peer's declared
//     weight. Data packets are forwarded hop by hop through the daemon's
//     own routing table.
//   - status.go, obs.go — an introspection snapshot (neighbors, measured
//     RTTs, MPR set, selectors, routing table, traffic counters) served as
//     JSON over a loopback HTTP endpoint, and the registry behind it.
//
// # The run loop's wake protocol
//
// Run blocks in one select on two channels: the transport's Inbound() and a
// capacity-1 wake channel. Three parties poke the loop: the emission timer
// (one time.AfterFunc armed for the earlier of the HELLO and TC deadlines),
// the context's AfterFunc, and Send/Status once a request is queued under
// Daemon.mu. A poke sets its bit in Daemon.pending, then offers the wake
// channel a token without blocking. After every wake-up, whichever channel
// caused it, the loop first reads the frames already queued (non-blocking
// receives, at most one queue's worth in a row), then swaps pending to zero
// and serves stop, tick and requests, and blocks again only with nothing
// left. No wake-up is lost: a bit is set before its token is offered and the
// loop takes the token before it reads the bits, so a poke that finds the
// channel full leaves its bit to the token already there. Reading queued
// frames first also keeps soft state honest after a stall: the HELLOs that
// arrived meanwhile refresh their neighbours before a tick or a Send judges
// them expired.
//
// # Buffer ownership
//
// A transport copies each datagram into a buffer from the package's free
// list; Inbound.Data is owned by whoever takes the Inbound off the channel.
// The run loop returns it to the list right after handleFrame, so the body
// Config.OnData sees, which aliases it, is valid only for the call, and a
// transit data frame is forwarded in that very buffer (TTL byte decremented,
// header re-stamped) — which is why Transport.Send must not keep its frame.
//
// # What the drop reasons show (open: ROADMAP item 1)
//
// Stats.DataDropped splits by reason (ttl, no-route, not-peer). On
// TestLoopbackMesh the lost packets were TTL deaths in two-node loops, mostly
// between two direct neighbours of the destination: each daemon priced its
// own links by its own RTT, at weights of one or two 1/32 ms quanta where
// one quantum of skew is a factor of two, so the two ends of a link could
// disagree about it indefinitely. Under SenseRTT both ends hold the same two
// rungs after one HELLO each way and price the link alike. What remains is
// link-state routing's transient: a rung change reaches the rest of the mesh
// a HELLO or a TC later, and packets sent in that window can still loop.
//
// cmd/qolsr-node wraps a Daemon in a CLI; the integration test in this
// package converges a 20-daemon mesh on 127.0.0.1 UDP ports and routes live
// data through it.
package node
