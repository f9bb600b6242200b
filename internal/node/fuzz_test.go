package node

import (
	"bytes"
	"testing"

	"qolsr/internal/olsr"
)

// The frame and data codecs sit directly on the UDP socket: every byte they
// see is untrusted. The fuzzers assert no input panics and that accepted
// input re-encodes bit-identically — the frame layer's wire form is
// canonical, so anything that decodes is something a daemon could have
// sent. The exported Unmarshal*/Marshal* wrappers and the by-value,
// append-style codec the daemon runs on must agree on every input: same
// verdict, same fields, same bytes.

func FuzzUnmarshalFrame(f *testing.F) {
	mustFrame := func(fr *Frame) []byte {
		buf, err := MarshalFrame(fr)
		if err != nil {
			panic(err)
		}
		return buf
	}
	f.Add(mustFrame(&Frame{Kind: KindControl, Sender: 1, TxTime: 100,
		Payload: olsr.MarshalHello(&olsr.Hello{Origin: 1, Seq: 3})}))
	f.Add(mustFrame(&Frame{Kind: KindControl, Sender: -2, TxTime: 7, EchoTime: 3, EchoDelay: 1,
		Payload: olsr.MarshalTC(&olsr.TC{Origin: -2, Seq: 9, ANSN: 4,
			Links: []olsr.LinkInfo{{Neighbor: 5, Weight: 1.25}}})}))
	data, err := MarshalData(&DataPacket{Dst: 3, Src: 1, Seq: 42, TTL: 8, Body: []byte("payload")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mustFrame(&Frame{Kind: KindData, Sender: 1, TxTime: 55, Payload: data}))
	f.Add([]byte("QLSR garbage that is long enough to clear the header check......"))

	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, err := UnmarshalFrame(buf)
		val, verr := decodeFrame(buf)
		if (err == nil) != (verr == nil) {
			t.Fatalf("wrapper says %v, by-value decoder says %v", err, verr)
		}
		if err != nil {
			return
		}
		if fr.Kind != val.Kind || fr.Sender != val.Sender || fr.TxTime != val.TxTime ||
			fr.EchoTime != val.EchoTime || fr.EchoDelay != val.EchoDelay || !bytes.Equal(fr.Payload, val.Payload) {
			t.Fatalf("decoders disagree: %+v vs %+v", *fr, val)
		}
		out, err := MarshalFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(out, buf) {
			t.Fatalf("non-canonical frame: decode/encode changed %x to %x", buf, out)
		}
		// Re-stamping an accepted frame with its own fields is the identity.
		putFrameHeader(out, val.Kind, val.Sender, val.TxTime, val.EchoTime, val.EchoDelay)
		if !bytes.Equal(out, buf) {
			t.Fatalf("re-stamping changed %x to %x", buf, out)
		}
	})
}

func FuzzUnmarshalData(f *testing.F) {
	seed, err := MarshalData(&DataPacket{Dst: -7, Src: 2, Seq: 1 << 33, TTL: 32, Body: []byte("abc")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := MarshalData(&DataPacket{Dst: 1, Src: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := UnmarshalData(buf)
		val, verr := decodeData(buf)
		if (err == nil) != (verr == nil) {
			t.Fatalf("wrapper says %v, by-value decoder says %v", err, verr)
		}
		if err != nil {
			return
		}
		if p.Dst != val.Dst || p.Src != val.Src || p.Seq != val.Seq || p.TTL != val.TTL || !bytes.Equal(p.Body, val.Body) {
			t.Fatalf("decoders disagree: %+v vs %+v", *p, val)
		}
		if val.TTL != buf[dataTTLOffset] {
			t.Fatalf("TTL %d is not the byte a forwarder decrements (%d)", val.TTL, buf[dataTTLOffset])
		}
		out, err := MarshalData(p)
		if err != nil {
			t.Fatalf("accepted packet fails to re-encode: %v", err)
		}
		if !bytes.Equal(out, buf) {
			t.Fatalf("non-canonical data packet: decode/encode changed %x to %x", buf, out)
		}
		if app, err := appendData([]byte("xyz"), &val); err != nil || !bytes.Equal(app[3:], buf) {
			t.Fatalf("appendData at an offset: %x, %v", app, err)
		}
	})
}
