// Package olsr implements the OLSR/QOLSR protocol machinery the paper's
// selection algorithms live in: HELLO messages that piggyback the sender's
// neighborhood table with QoS link weights (building each node's two-hop
// view G_u), TC messages that flood the advertised neighbor sets through the
// MPR backbone (the flooding host suppresses duplicates), topology and
// neighbor state with expiry, and QoS routing-table computation. The
// two-hop view selection runs on and the routing graph are laid out by one
// function, Node.layout, the one place the rule for which report of a link
// wins is stated.
//
// The implementation follows RFC 3626's structure simplified to the paper's
// assumptions: symmetric links (no asymmetric sensing phase), uniform
// willingness, no HNA/MID, and an abstract per-link QoS weight whose
// measurement is out of scope (paper Sec. II).
package olsr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types.
const (
	MsgHello MsgType = iota + 1
	MsgTC
	MsgTCDelta
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgTC:
		return "TC"
	case MsgTCDelta:
		return "TC-DELTA"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// LinkInfo is one advertised link: the neighbor's identifier and the QoS
// weight of the link toward it.
type LinkInfo struct {
	Neighbor int64
	Weight   float64
}

// Hello is the neighbor-discovery message. Besides announcing the sender,
// it piggybacks the sender's current link table with weights, which is
// exactly what lets receivers assemble the two-hop view G_u the selection
// algorithms need (paper Sec. III-B: "this can be achieved by piggybacking
// neighborhood table in Hello messages").
type Hello struct {
	// Origin is the sending node.
	Origin int64
	// Seq increments per HELLO from this origin.
	Seq uint16
	// Links is the sender's neighbor table with QoS weights.
	Links []LinkInfo
	// MPRs lists the neighbors the sender has chosen as multipoint
	// relays; receivers use it to maintain their MPR-selector sets,
	// which gate TC forwarding.
	MPRs []int64
	// LQs, present only under the measured link-sensing modes, carries the
	// sender's half of each measured link: its raw windowed HELLO delivery
	// ratio under SenseDelivery (what the receiver needs to form an
	// ETX-style bidirectional estimate), its advertised RTT ladder rung in
	// milliseconds under SenseRTT. The block is encoded only when
	// non-empty, so oracle-mode HELLOs are byte-identical to the
	// pre-measurement wire format.
	LQs []LinkInfo
}

// TC is the topology-control message flooded through the MPR backbone. It
// advertises the origin's QoS Advertised Neighbor Set with link weights so
// remote nodes can compute QoS routes.
type TC struct {
	// Origin is the node whose advertised set this is (not the
	// forwarder).
	Origin int64
	// ANSN is the Advertised Neighbor Sequence Number; stale TCs are
	// discarded.
	ANSN uint16
	// Seq is the flooding sequence number used for duplicate
	// suppression.
	Seq uint16
	// Links is the advertised neighbor set with link weights.
	Links []LinkInfo
}

const (
	headerLen   = 1 + 8 + 2 + 2 // type, origin, seq, count
	linkInfoLen = 8 + 8
)

// validWeight reports whether an advertised link weight is acceptable from
// the wire. The decoders face untrusted network bytes: a NaN weight would
// poison every metric comparison downstream (NaN compares false against
// everything, corrupting Dijkstra and the selection orderings), an infinite
// or negative one breaks the additive metrics' optimality assumptions. Every
// legitimate sender — simulator oracle, measured ETX/delivery estimates,
// RTT-derived delays — produces finite non-negative weights.
func validWeight(w float64) bool {
	return !math.IsNaN(w) && !math.IsInf(w, 0) && w >= 0
}

// appendLinks encodes a counted link block: count(2), then neighbor(8) and
// weight(8) per link.
func appendLinks(buf []byte, links []LinkInfo) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(links)))
	for _, l := range links {
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.Neighbor))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(l.Weight))
	}
	return buf
}

// readLinks decodes the counted link block at the head of buf (named what in
// errors) and returns it with the bytes that follow; an empty block decodes
// to nil. The claimed count is checked against the bytes present before
// anything is allocated for it, and every weight must pass validWeight.
func readLinks(buf []byte, what string) (links []LinkInfo, rest []byte, err error) {
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("olsr: truncated before the %s count", what)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n*linkInfoLen {
		return nil, nil, fmt.Errorf("olsr: truncated (%d %ss claimed)", n, what)
	}
	if n > 0 {
		links = make([]LinkInfo, n)
	}
	for i := range links {
		links[i].Neighbor = int64(binary.BigEndian.Uint64(buf))
		links[i].Weight = math.Float64frombits(binary.BigEndian.Uint64(buf[8:]))
		if !validWeight(links[i].Weight) {
			return nil, nil, fmt.Errorf("olsr: %s %d has invalid weight", what, i)
		}
		buf = buf[linkInfoLen:]
	}
	return links, buf, nil
}

// readHeader checks that buf holds at least size bytes of a message of type t
// (named what in errors) and returns the origin and seq every message opens
// with.
func readHeader(buf []byte, t MsgType, size int, what string) (origin int64, seq uint16, err error) {
	if len(buf) < size {
		return 0, 0, fmt.Errorf("olsr: %s too short (%d bytes)", what, len(buf))
	}
	if MsgType(buf[0]) != t {
		return 0, 0, fmt.Errorf("olsr: not a %s (type %d)", what, buf[0])
	}
	return int64(binary.BigEndian.Uint64(buf[1:9])), binary.BigEndian.Uint16(buf[9:11]), nil
}

// appendIDs encodes a counted identifier list: count(2), then 8 bytes each.
func appendIDs(buf []byte, ids []int64) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// readIDs is readLinks for a counted identifier list.
func readIDs(buf []byte, what string) (ids []int64, rest []byte, err error) {
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("olsr: truncated before the %s count", what)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n*8 {
		return nil, nil, fmt.Errorf("olsr: truncated (%d %ss claimed)", n, what)
	}
	if n > 0 {
		ids = make([]int64, n)
	}
	for i := range ids {
		ids[i] = int64(binary.BigEndian.Uint64(buf[i*8:]))
	}
	return ids, buf[n*8:], nil
}

// HelloLen is the length of MarshalHello(h), computed without encoding.
func HelloLen(h *Hello) int {
	size := headerLen + 2 + len(h.Links)*linkInfoLen + len(h.MPRs)*8
	if len(h.LQs) > 0 {
		size += 2 + len(h.LQs)*linkInfoLen
	}
	return size
}

// MarshalHello encodes h into a fresh byte slice.
func MarshalHello(h *Hello) []byte {
	buf := make([]byte, 0, HelloLen(h))
	buf = append(buf, byte(MsgHello))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Origin))
	buf = binary.BigEndian.AppendUint16(buf, h.Seq)
	buf = appendLinks(buf, h.Links)
	buf = appendIDs(buf, h.MPRs)
	// Optional trailing LQ block (measured link quality only): frames are
	// self-delimiting buffers, so absence is simply the frame ending here.
	if len(h.LQs) > 0 {
		buf = appendLinks(buf, h.LQs)
	}
	return buf
}

// UnmarshalHello decodes a HELLO produced by MarshalHello.
func UnmarshalHello(buf []byte) (*Hello, error) {
	origin, seq, err := readHeader(buf, MsgHello, headerLen, "hello")
	if err != nil {
		return nil, err
	}
	h := &Hello{Origin: origin, Seq: seq}
	if h.Links, buf, err = readLinks(buf[11:], "hello link"); err != nil {
		return nil, err
	}
	if h.MPRs, buf, err = readIDs(buf, "hello mpr"); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return h, nil // no LQ block — oracle-mode frame
	}
	if h.LQs, buf, err = readLinks(buf, "hello lq"); err != nil {
		return nil, err
	}
	if len(h.LQs) == 0 {
		// The marshaller omits an empty LQ block entirely; an explicit
		// zero-count block is not a frame we produce, so reject it to keep
		// the encoding canonical (decode(buf) re-encodes to buf).
		return nil, fmt.Errorf("olsr: hello has explicit empty lq block")
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("olsr: hello has trailing garbage after lq block (%d bytes)", len(buf))
	}
	return h, nil
}

// TCLen is the length of MarshalTC(t), computed without encoding.
func TCLen(t *TC) int { return headerLen + 2 + len(t.Links)*linkInfoLen }

// MarshalTC encodes t into a fresh byte slice.
func MarshalTC(t *TC) []byte {
	buf := make([]byte, 0, TCLen(t))
	buf = append(buf, byte(MsgTC))
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Origin))
	buf = binary.BigEndian.AppendUint16(buf, t.Seq)
	buf = binary.BigEndian.AppendUint16(buf, t.ANSN)
	return appendLinks(buf, t.Links)
}

// PeekTC reads an encoded TC's origin and flooding sequence number off its
// fixed header, decoding nothing else.
func PeekTC(buf []byte) (origin int64, seq uint16, err error) {
	return readHeader(buf, MsgTC, headerLen+2, "tc")
}

// UnmarshalTC decodes a TC produced by MarshalTC.
func UnmarshalTC(buf []byte) (*TC, error) {
	origin, seq, err := PeekTC(buf)
	if err != nil {
		return nil, err
	}
	t := &TC{Origin: origin, Seq: seq, ANSN: binary.BigEndian.Uint16(buf[11:13])}
	if t.Links, buf, err = readLinks(buf[13:], "tc link"); err != nil {
		return nil, err
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("olsr: tc has trailing garbage (%d bytes)", len(buf))
	}
	return t, nil
}

// TCDelta is the delta-encoded topology-control message (opt-in, see
// Config.DeltaTC): instead of re-flooding the whole advertised neighbor set
// every period, the origin floods only the changes against what it last
// flooded. Deltas form a chain anchored on the last full TC: FullSeq names
// the anchoring full TC's flooding sequence number and Index is the delta's
// 1-based position in the chain since it. A receiver applies a delta only
// when it holds the origin's state at exactly (FullSeq, Index-1); any gap —
// a missed delta, a missed full, a fresh receiver — desynchronises it until
// the next full TC rebases the chain (the origin refreshes the full state
// periodically, so resync is bounded by the full-TC period). In the
// steady-state converged network the delta is empty and serves as a pure
// soft-state keepalive at a fraction of a full TC's size.
type TCDelta struct {
	// Origin is the node whose advertised set changed (not the forwarder).
	Origin int64
	// Seq is the flooding sequence number used for duplicate suppression;
	// full TCs and deltas share the origin's one counter.
	Seq uint16
	// ANSN is the Advertised Neighbor Sequence Number after applying the
	// delta.
	ANSN uint16
	// FullSeq is the Seq of the full TC this delta chain is anchored on.
	FullSeq uint16
	// Index is the 1-based position in the delta chain since FullSeq.
	Index uint16
	// Add lists links added to — or reweighted within — the advertised set.
	Add []LinkInfo
	// Del lists neighbors removed from the advertised set.
	Del []int64
}

// TCDeltaLen is the length of MarshalTCDelta(d), computed without encoding.
func TCDeltaLen(d *TCDelta) int {
	return headerLen + 6 + len(d.Add)*linkInfoLen + 2 + len(d.Del)*8
}

// MarshalTCDelta encodes d into a fresh byte slice.
func MarshalTCDelta(d *TCDelta) []byte {
	buf := make([]byte, 0, TCDeltaLen(d))
	buf = append(buf, byte(MsgTCDelta))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.Origin))
	buf = binary.BigEndian.AppendUint16(buf, d.Seq)
	buf = binary.BigEndian.AppendUint16(buf, d.ANSN)
	buf = binary.BigEndian.AppendUint16(buf, d.FullSeq)
	buf = binary.BigEndian.AppendUint16(buf, d.Index)
	buf = appendLinks(buf, d.Add)
	return appendIDs(buf, d.Del)
}

// UnmarshalTCDelta decodes a TC delta produced by MarshalTCDelta.
func UnmarshalTCDelta(buf []byte) (*TCDelta, error) {
	const fixed = 1 + 8 + 2 + 2 + 2 + 2 // type origin seq ansn fullseq index
	origin, seq, err := readHeader(buf, MsgTCDelta, fixed+2+2, "tc delta")
	if err != nil {
		return nil, err
	}
	d := &TCDelta{
		Origin:  origin,
		Seq:     seq,
		ANSN:    binary.BigEndian.Uint16(buf[11:13]),
		FullSeq: binary.BigEndian.Uint16(buf[13:15]),
		Index:   binary.BigEndian.Uint16(buf[15:17]),
	}
	if d.Index == 0 {
		// Chain positions are 1-based: index 0 is not a frame the
		// marshalling side produces (GenerateTCUpdate emits a full TC as the
		// chain base instead).
		return nil, fmt.Errorf("olsr: tc delta with zero chain index")
	}
	if d.Add, buf, err = readLinks(buf[fixed:], "tc delta add"); err != nil {
		return nil, err
	}
	if d.Del, buf, err = readIDs(buf, "tc delta del"); err != nil {
		return nil, err
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("olsr: tc delta has trailing garbage (%d bytes)", len(buf))
	}
	return d, nil
}

// PeekType reports the wire type of an encoded message.
func PeekType(buf []byte) (MsgType, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("olsr: empty message")
	}
	t := MsgType(buf[0])
	if t != MsgHello && t != MsgTC && t != MsgTCDelta {
		return 0, fmt.Errorf("olsr: unknown message type %d", buf[0])
	}
	return t, nil
}
