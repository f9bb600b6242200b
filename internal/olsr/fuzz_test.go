package olsr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The message decoders face raw network bytes once the daemon runs the
// protocol over real sockets. The fuzzers assert the hardening contract: no
// input panics or over-allocates, and every accepted input re-encodes
// bit-identically (the wire form is canonical), so a decoded message is
// always one the marshaller could have produced. They also pin each length
// function (HelloLen, TCLen, TCDeltaLen) to its encoding's length: the
// simulator accounts bytes with those functions and never encodes.

func helloSeeds() [][]byte {
	return [][]byte{
		MarshalHello(&Hello{Origin: 1, Seq: 7}),
		MarshalHello(&Hello{
			Origin: -3, Seq: 65535,
			Links: []LinkInfo{{Neighbor: 2, Weight: 1.5}, {Neighbor: 3, Weight: 0.25}},
			MPRs:  []int64{2},
		}),
		MarshalHello(&Hello{
			Origin: 9, Seq: 1,
			Links: []LinkInfo{{Neighbor: 4, Weight: 12}},
			MPRs:  []int64{4, 5},
			LQs:   []LinkInfo{{Neighbor: 4, Weight: 0.75}, {Neighbor: 5, Weight: 1}},
		}),
	}
}

func FuzzUnmarshalHello(f *testing.F) {
	for _, s := range helloSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, err := UnmarshalHello(buf)
		if err != nil {
			return
		}
		for _, l := range h.Links {
			if !validWeight(l.Weight) {
				t.Fatalf("accepted invalid link weight %v", l.Weight)
			}
		}
		for _, l := range h.LQs {
			if !validWeight(l.Weight) {
				t.Fatalf("accepted invalid lq weight %v", l.Weight)
			}
		}
		if out := MarshalHello(h); !bytes.Equal(out, buf) {
			t.Fatalf("non-canonical hello: decode/encode changed %x to %x", buf, out)
		}
		if n := HelloLen(h); n != len(buf) {
			t.Fatalf("HelloLen = %d, encoding is %d bytes", n, len(buf))
		}
	})
}

func FuzzUnmarshalTC(f *testing.F) {
	f.Add(MarshalTC(&TC{Origin: 1, Seq: 2, ANSN: 3}))
	f.Add(MarshalTC(&TC{
		Origin: -9, Seq: 65535, ANSN: 32768,
		Links: []LinkInfo{{Neighbor: 1, Weight: 0}, {Neighbor: 7, Weight: 123.5}},
	}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		tc, err := UnmarshalTC(buf)
		if err != nil {
			return
		}
		for _, l := range tc.Links {
			if !validWeight(l.Weight) {
				t.Fatalf("accepted invalid link weight %v", l.Weight)
			}
		}
		if out := MarshalTC(tc); !bytes.Equal(out, buf) {
			t.Fatalf("non-canonical tc: decode/encode changed %x to %x", buf, out)
		}
		if n := TCLen(tc); n != len(buf) {
			t.Fatalf("TCLen = %d, encoding is %d bytes", n, len(buf))
		}
	})
}

func FuzzUnmarshalTCDelta(f *testing.F) {
	f.Add(MarshalTCDelta(&TCDelta{Origin: 1, Seq: 2, ANSN: 3, FullSeq: 1, Index: 1}))
	f.Add(MarshalTCDelta(&TCDelta{
		Origin: -9, Seq: 65535, ANSN: 32768, FullSeq: 65530, Index: 5,
		Add: []LinkInfo{{Neighbor: 1, Weight: 0}, {Neighbor: 7, Weight: 123.5}},
		Del: []int64{3, -4},
	}))
	f.Add(MarshalTCDelta(&TCDelta{Origin: 4, Seq: 9, FullSeq: 8, Index: 1, Del: []int64{12}}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, err := UnmarshalTCDelta(buf)
		if err != nil {
			return
		}
		if d.Index == 0 {
			t.Fatal("accepted zero chain index")
		}
		for _, l := range d.Add {
			if !validWeight(l.Weight) {
				t.Fatalf("accepted invalid link weight %v", l.Weight)
			}
		}
		if out := MarshalTCDelta(d); !bytes.Equal(out, buf) {
			t.Fatalf("non-canonical tc delta: decode/encode changed %x to %x", buf, out)
		}
		if n := TCDeltaLen(d); n != len(buf) {
			t.Fatalf("TCDeltaLen = %d, encoding is %d bytes", n, len(buf))
		}
	})
}

// corruptWeight rewrites the first link weight of an encoded message in
// place. Layout: type(1) origin(8) seq(2) count(2) for HELLOs, plus ANSN
// before the count for TCs; the first weight sits 8 bytes into the first
// link entry.
func corruptWeight(buf []byte, linkOff int, w float64) []byte {
	out := bytes.Clone(buf)
	binary.BigEndian.PutUint64(out[linkOff+8:], math.Float64bits(w))
	return out
}

// TestUnmarshalRejectsHostileWeights locks the validation the fuzzers rely
// on: NaN, infinite and negative weights — expressible on the wire, never
// produced by a legitimate sender — are decode errors, not poison that
// reaches the metric comparisons.
func TestUnmarshalRejectsHostileWeights(t *testing.T) {
	hello := MarshalHello(&Hello{Origin: 1, Links: []LinkInfo{{Neighbor: 2, Weight: 3}}})
	tc := MarshalTC(&TC{Origin: 1, Links: []LinkInfo{{Neighbor: 2, Weight: 3}}})
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := UnmarshalHello(corruptWeight(hello, 13, w)); err == nil {
			t.Errorf("hello with link weight %v accepted", w)
		}
		if _, err := UnmarshalTC(corruptWeight(tc, 15, w)); err == nil {
			t.Errorf("tc with link weight %v accepted", w)
		}
	}
	lq := MarshalHello(&Hello{Origin: 1, LQs: []LinkInfo{{Neighbor: 2, Weight: 0.5}}})
	// The LQ block starts after header(13) + mpr count(2) + lq count(2).
	if _, err := UnmarshalHello(corruptWeight(lq, 17, math.NaN())); err == nil {
		t.Error("hello with NaN lq weight accepted")
	}
	// The delta's Add block starts after header(13) + fullseq(2) +
	// index(2) + add count(2).
	delta := MarshalTCDelta(&TCDelta{Origin: 1, Index: 1, Add: []LinkInfo{{Neighbor: 2, Weight: 3}}})
	if _, err := UnmarshalTCDelta(corruptWeight(delta, 19, math.NaN())); err == nil {
		t.Error("tc delta with NaN add weight accepted")
	}
}

func TestUnmarshalRejectsNonCanonicalEncodings(t *testing.T) {
	// An explicit zero-count LQ block: the marshaller omits empty blocks.
	h := MarshalHello(&Hello{Origin: 1, MPRs: []int64{2}})
	if _, err := UnmarshalHello(append(bytes.Clone(h), 0, 0)); err == nil {
		t.Error("hello with explicit empty lq block accepted")
	}
	// Trailing bytes after a complete TC.
	tc := MarshalTC(&TC{Origin: 1, Links: []LinkInfo{{Neighbor: 2, Weight: 3}}})
	if _, err := UnmarshalTC(append(bytes.Clone(tc), 0xff)); err == nil {
		t.Error("tc with trailing garbage accepted")
	}
}

// TestUnmarshalAbsurdCounts claims far more entries than the buffer holds;
// the decoders must error out before allocating for the claim.
func TestUnmarshalAbsurdCounts(t *testing.T) {
	hello := MarshalHello(&Hello{Origin: 1})
	for _, off := range []int{11} { // link count field
		b := bytes.Clone(hello)
		binary.BigEndian.PutUint16(b[off:], 65535)
		if _, err := UnmarshalHello(b); err == nil {
			t.Errorf("hello claiming 65535 entries at offset %d accepted", off)
		}
	}
	tc := MarshalTC(&TC{Origin: 1})
	b := bytes.Clone(tc)
	binary.BigEndian.PutUint16(b[13:], 65535)
	if _, err := UnmarshalTC(b); err == nil {
		t.Error("tc claiming 65535 links accepted")
	}
	delta := MarshalTCDelta(&TCDelta{Origin: 1, Index: 1})
	for _, off := range []int{17, 19} { // add count, del count
		b := bytes.Clone(delta)
		binary.BigEndian.PutUint16(b[off:], 65535)
		if _, err := UnmarshalTCDelta(b); err == nil {
			t.Errorf("tc delta claiming 65535 entries at offset %d accepted", off)
		}
	}
}

// countPastEnd returns, per shared-decoder block, a message whose block count
// claims one more element than the buffer holds — the off-by-one boundary of
// the truncation checks in readLinks/readIDs. The same inputs are committed
// as seed corpus files under testdata/fuzz.
func countPastEnd() map[string][]byte {
	bump := func(buf []byte, countOff int) []byte {
		out := bytes.Clone(buf)
		binary.BigEndian.PutUint16(out[countOff:], binary.BigEndian.Uint16(out[countOff:])+1)
		return out
	}
	link := []LinkInfo{{Neighbor: 2, Weight: 1.5}}
	// Offsets: a HELLO's link count sits at 11 and each block follows the
	// previous one; a delta's add count sits at 17.
	return map[string][]byte{
		"FuzzUnmarshalHello/count-past-end-links":  bump(MarshalHello(&Hello{Origin: 1, Seq: 7, Links: link}), 11),
		"FuzzUnmarshalHello/count-past-end-mprs":   bump(MarshalHello(&Hello{Origin: 1, Seq: 7, Links: link, MPRs: []int64{2}}), 13+linkInfoLen),
		"FuzzUnmarshalHello/count-past-end-lqs":    bump(MarshalHello(&Hello{Origin: 1, Seq: 7, Links: link, MPRs: []int64{2}, LQs: link}), 13+linkInfoLen+2+8),
		"FuzzUnmarshalTCDelta/count-past-end-adds": bump(MarshalTCDelta(&TCDelta{Origin: 1, Seq: 2, ANSN: 3, FullSeq: 1, Index: 1, Add: link}), 17),
		"FuzzUnmarshalTCDelta/count-past-end-dels": bump(MarshalTCDelta(&TCDelta{Origin: 1, Seq: 2, ANSN: 3, FullSeq: 1, Index: 1, Add: link, Del: []int64{4}}), 19+linkInfoLen),
	}
}

// TestUnmarshalRejectsCountOnePastEnd: every block decoder rejects a count
// one past what the buffer holds, and the committed seed file is that input.
func TestUnmarshalRejectsCountOnePastEnd(t *testing.T) {
	for name, buf := range countPastEnd() {
		seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", name))
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf); err != nil || string(seed) != want {
			t.Errorf("%s: seed file is %q (%v), want %q", name, seed, err, want)
		}
		if buf[0] == byte(MsgHello) {
			_, err = UnmarshalHello(buf)
		} else {
			_, err = UnmarshalTCDelta(buf)
		}
		if err == nil {
			t.Errorf("%s: accepted %x", name, buf)
		}
	}
}

// TestUnmarshalPrefixes is the truncation property over the shared block
// decoders: every strict prefix of a valid encoding is either rejected or is
// itself a canonical message (it re-encodes to exactly that prefix). The one
// legal case is a HELLO cut right before its LQ block, which is the LQ-less
// HELLO; no other prefix may decode.
func TestUnmarshalPrefixes(t *testing.T) {
	links := []LinkInfo{{Neighbor: 2, Weight: 1.5}, {Neighbor: 3, Weight: 0.25}}
	plain := &Hello{Origin: -3, Seq: 65535, Links: links, MPRs: []int64{2, 3}}
	withLQ := *plain
	withLQ.LQs = []LinkInfo{{Neighbor: 2, Weight: 0.75}}
	reencode := map[MsgType]func([]byte) ([]byte, error){
		MsgHello: func(b []byte) ([]byte, error) {
			h, err := UnmarshalHello(b)
			if err != nil {
				return nil, err
			}
			return MarshalHello(h), nil
		},
		MsgTC: func(b []byte) ([]byte, error) {
			tc, err := UnmarshalTC(b)
			if err != nil {
				return nil, err
			}
			return MarshalTC(tc), nil
		},
		MsgTCDelta: func(b []byte) ([]byte, error) {
			d, err := UnmarshalTCDelta(b)
			if err != nil {
				return nil, err
			}
			return MarshalTCDelta(d), nil
		},
	}
	for _, c := range []struct {
		name  string
		buf   []byte
		legal int // the one prefix length allowed to decode, or -1
	}{
		{"hello", MarshalHello(plain), -1},
		{"hello+lq", MarshalHello(&withLQ), len(MarshalHello(plain))},
		{"tc", MarshalTC(&TC{Origin: 1, Seq: 2, ANSN: 3, Links: links}), -1},
		{"tc-delta", MarshalTCDelta(&TCDelta{Origin: 1, Seq: 2, ANSN: 3, FullSeq: 1, Index: 1, Add: links, Del: []int64{4, 5}}), -1},
	} {
		if out, err := reencode[MsgType(c.buf[0])](c.buf); err != nil || !bytes.Equal(out, c.buf) {
			t.Fatalf("%s: whole message does not round-trip: %v", c.name, err)
		}
		for k := 0; k < len(c.buf); k++ {
			out, err := reencode[MsgType(c.buf[0])](c.buf[:k])
			switch {
			case err != nil:
				if k == c.legal {
					t.Errorf("%s: the %d-byte prefix is a whole LQ-less hello and was rejected: %v", c.name, k, err)
				}
			case k != c.legal:
				t.Errorf("%s: truncated %d-byte prefix decoded", c.name, k)
			case !bytes.Equal(out, c.buf[:k]):
				t.Errorf("%s: prefix %x re-encodes to %x", c.name, c.buf[:k], out)
			}
		}
	}
}
