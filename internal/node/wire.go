package node

import (
	"encoding/binary"
	"fmt"
)

// The frame layer wraps every datagram a daemon sends — the olsr HELLO/TC
// encodings and routable data packets alike — in a fixed header that makes
// the wire format versioned, attributable and measurable:
//
//	offset size field
//	0      4    magic "QLSR"
//	4      1    version (FrameVersion)
//	5      1    kind (KindControl | KindData)
//	6      8    sender node identifier
//	14     8    TxTime: sender-clock nanoseconds at transmission
//	22     8    EchoTime: the TxTime of the newest frame received from the
//	            destination (0 when none has been received yet)
//	30     8    EchoDelay: nanoseconds the echoed stamp spent at the sender
//	38     2    payload length
//	40     ...  payload
//
// The TxTime/EchoTime/EchoDelay triplet is the RTT instrument: a node
// stamps its own clock on every transmission, the destination echoes the
// newest stamp back together with how long it held it, and the original
// sender computes rtt = now − EchoTime − EchoDelay entirely in its own
// clock — no synchronisation between the two ends is needed. The periodic
// HELLO exchange therefore doubles as a continuous round-trip probe stream,
// which is what feeds measured delay weights into the protocol.
//
// All integers are big-endian. Decoding faces untrusted network bytes and
// must never panic or allocate more than the datagram holds.

// FrameVersion is the wire format version this implementation speaks.
// Frames carrying any other version are rejected by the decoder.
const FrameVersion = 1

// frameMagic guards against cross-protocol datagrams hitting our port.
var frameMagic = [4]byte{'Q', 'L', 'S', 'R'}

// FrameKind discriminates the payload of a frame.
type FrameKind uint8

// Frame kinds.
const (
	// KindControl frames carry one olsr wire message (HELLO or TC).
	KindControl FrameKind = iota + 1
	// KindData frames carry one DataPacket routed through daemon tables.
	KindData
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case KindControl:
		return "control"
	case KindData:
		return "data"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

const (
	frameHeaderLen = 4 + 1 + 1 + 8 + 8 + 8 + 8 + 2
	// MaxPayload bounds a frame's payload so every frame fits one UDP
	// datagram with headroom to spare.
	MaxPayload = 65000
)

// Frame is one decoded datagram.
type Frame struct {
	Kind   FrameKind
	Sender int64
	// TxTime is the sender's monotonic clock (nanoseconds) at
	// transmission. It is opaque to the receiver, which echoes it back
	// verbatim; 0 means unset.
	TxTime uint64
	// EchoTime is the TxTime of the newest frame the sender had received
	// from this frame's destination, or 0 if none.
	EchoTime uint64
	// EchoDelay is how long (nanoseconds) the sender held EchoTime before
	// transmitting this frame; the destination subtracts it so processing
	// time does not inflate the measured round trip.
	EchoDelay uint64
	// Payload is the encapsulated message bytes.
	Payload []byte
}

// putFrameHeader writes the 40-byte header of a frame whose payload already
// sits at frame[frameHeaderLen:]. It is the whole frame encoder: MarshalFrame
// and the daemon lay a payload out behind it, and a forwarder re-stamps a
// received frame by calling it on the received bytes.
func putFrameHeader(frame []byte, kind FrameKind, sender int64, tx, echo, delay uint64) {
	copy(frame[:4], frameMagic[:])
	frame[4], frame[5] = FrameVersion, byte(kind)
	binary.BigEndian.PutUint64(frame[6:], uint64(sender))
	binary.BigEndian.PutUint64(frame[14:], tx)
	binary.BigEndian.PutUint64(frame[22:], echo)
	binary.BigEndian.PutUint64(frame[30:], delay)
	binary.BigEndian.PutUint16(frame[38:], uint16(len(frame)-frameHeaderLen))
}

// MarshalFrame encodes f into a fresh byte slice.
func MarshalFrame(f *Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("node: frame payload too large (%d bytes)", len(f.Payload))
	}
	if f.Kind != KindControl && f.Kind != KindData {
		return nil, fmt.Errorf("node: cannot marshal frame of kind %d", f.Kind)
	}
	buf := append(make([]byte, frameHeaderLen, frameHeaderLen+len(f.Payload)), f.Payload...)
	putFrameHeader(buf, f.Kind, f.Sender, f.TxTime, f.EchoTime, f.EchoDelay)
	return buf, nil
}

// decodeFrame decodes one datagram by value. The Frame's Payload aliases
// buf. Truncated, oversize, foreign-magic and foreign-version input returns
// an error; no input panics.
func decodeFrame(buf []byte) (Frame, error) {
	if len(buf) < frameHeaderLen {
		return Frame{}, fmt.Errorf("node: frame too short (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != frameMagic {
		return Frame{}, fmt.Errorf("node: bad frame magic %x", buf[:4])
	}
	if buf[4] != FrameVersion {
		return Frame{}, fmt.Errorf("node: unsupported frame version %d (speak %d)", buf[4], FrameVersion)
	}
	kind := FrameKind(buf[5])
	if kind != KindControl && kind != KindData {
		return Frame{}, fmt.Errorf("node: unknown frame kind %d", buf[5])
	}
	n := int(binary.BigEndian.Uint16(buf[38:40]))
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("node: frame payload too large (%d bytes claimed)", n)
	}
	if len(buf) != frameHeaderLen+n {
		return Frame{}, fmt.Errorf("node: frame length mismatch (%d bytes claimed, %d present)",
			n, len(buf)-frameHeaderLen)
	}
	return Frame{
		Kind:      kind,
		Sender:    int64(binary.BigEndian.Uint64(buf[6:14])),
		TxTime:    binary.BigEndian.Uint64(buf[14:22]),
		EchoTime:  binary.BigEndian.Uint64(buf[22:30]),
		EchoDelay: binary.BigEndian.Uint64(buf[30:38]),
		Payload:   buf[frameHeaderLen:],
	}, nil
}

// UnmarshalFrame is decodeFrame behind a pointer.
func UnmarshalFrame(buf []byte) (*Frame, error) { return ptr(decodeFrame(buf)) }

// ptr turns a by-value decode result into the exported pointer form.
func ptr[T any](v T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// DataPacket is the payload of a KindData frame: a unicast application
// packet routed hop by hop through the daemons' own routing tables.
//
//	offset size field
//	0      8    destination node identifier
//	8      8    source node identifier
//	16     8    sequence number (per source)
//	24     1    TTL, decremented per forward
//	25     2    body length
//	27     ...  body
type DataPacket struct {
	Dst, Src int64
	Seq      uint64
	TTL      uint8
	Body     []byte
}

const (
	dataHeaderLen = 8 + 8 + 8 + 1 + 2
	// dataTTLOffset is where the TTL byte sits: a forwarder decrements it
	// in the received buffer instead of re-encoding the packet.
	dataTTLOffset = 24
	// MaxDataBody bounds a data packet's body so the encoded packet fits a
	// frame payload.
	MaxDataBody = MaxPayload - dataHeaderLen
)

// appendData appends p's encoding to dst (nil on error).
func appendData(dst []byte, p *DataPacket) ([]byte, error) {
	if len(p.Body) > MaxDataBody {
		return nil, fmt.Errorf("node: data body too large (%d bytes)", len(p.Body))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Dst))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Src))
	dst = binary.BigEndian.AppendUint64(dst, p.Seq)
	dst = append(dst, p.TTL)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Body)))
	return append(dst, p.Body...), nil
}

// MarshalData encodes p into a fresh byte slice.
func MarshalData(p *DataPacket) ([]byte, error) {
	return appendData(make([]byte, 0, dataHeaderLen+len(p.Body)), p)
}

// decodeData decodes a data packet by value. The Body aliases buf.
func decodeData(buf []byte) (DataPacket, error) {
	if len(buf) < dataHeaderLen {
		return DataPacket{}, fmt.Errorf("node: data packet too short (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[25:27]))
	if len(buf) != dataHeaderLen+n {
		return DataPacket{}, fmt.Errorf("node: data length mismatch (%d bytes claimed, %d present)",
			n, len(buf)-dataHeaderLen)
	}
	return DataPacket{
		Dst:  int64(binary.BigEndian.Uint64(buf[0:8])),
		Src:  int64(binary.BigEndian.Uint64(buf[8:16])),
		Seq:  binary.BigEndian.Uint64(buf[16:24]),
		TTL:  buf[dataTTLOffset],
		Body: buf[dataHeaderLen:],
	}, nil
}

// UnmarshalData is decodeData behind a pointer.
func UnmarshalData(buf []byte) (*DataPacket, error) { return ptr(decodeData(buf)) }
