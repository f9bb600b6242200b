package olsr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{
		Origin: 42,
		Seq:    1001,
		Links: []LinkInfo{
			{Neighbor: 7, Weight: 3.25},
			{Neighbor: 9, Weight: 8},
		},
		MPRs: []int64{7},
	}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", h, got)
	}
}

func TestTCRoundTrip(t *testing.T) {
	tc := &TC{
		Origin: 3,
		ANSN:   77,
		Seq:    12,
		Links:  []LinkInfo{{Neighbor: 5, Weight: 1.5}},
	}
	got, err := UnmarshalTC(MarshalTC(tc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tc, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", tc, got)
	}
}

// TestMessageLen holds each length function to its encoding's length,
// counted here by field: a HELLO's LQ block (count and entries) is present
// only when it has an entry.
func TestMessageLen(t *testing.T) {
	links := []LinkInfo{{Neighbor: 7, Weight: 3.25}, {Neighbor: 9, Weight: 8}}
	for _, c := range []struct {
		name      string
		enc, size int
		want      int
	}{
		{"hello empty", len(MarshalHello(&Hello{Origin: 1})), HelloLen(&Hello{Origin: 1}), 1 + 8 + 2 + 2 + 2},
		{"hello without lq", len(MarshalHello(&Hello{Links: links, MPRs: []int64{7}})),
			HelloLen(&Hello{Links: links, MPRs: []int64{7}}), 15 + 2*16 + 8},
		{"hello with lq", len(MarshalHello(&Hello{Links: links, MPRs: []int64{7}, LQs: links[:1]})),
			HelloLen(&Hello{Links: links, MPRs: []int64{7}, LQs: links[:1]}), 15 + 2*16 + 8 + 2 + 16},
		{"hello with empty lq", len(MarshalHello(&Hello{Links: links, LQs: []LinkInfo{}})),
			HelloLen(&Hello{Links: links, LQs: []LinkInfo{}}), 15 + 2*16},
		{"tc empty", len(MarshalTC(&TC{})), TCLen(&TC{}), 1 + 8 + 2 + 2 + 2},
		{"tc", len(MarshalTC(&TC{Links: links})), TCLen(&TC{Links: links}), 15 + 2*16},
		{"delta empty", len(MarshalTCDelta(&TCDelta{Index: 1})), TCDeltaLen(&TCDelta{Index: 1}), 1 + 8 + 2 + 2 + 2 + 2 + 2 + 2},
		{"delta", len(MarshalTCDelta(&TCDelta{Index: 1, Add: links, Del: []int64{3}})),
			TCDeltaLen(&TCDelta{Index: 1, Add: links, Del: []int64{3}}), 21 + 2*16 + 8},
	} {
		if c.enc != c.want || c.size != c.want {
			t.Errorf("%s: encoded %d bytes, length function %d, want %d", c.name, c.enc, c.size, c.want)
		}
	}
}

func TestEmptyMessagesRoundTrip(t *testing.T) {
	h, err := UnmarshalHello(MarshalHello(&Hello{Origin: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Links) != 0 || len(h.MPRs) != 0 {
		t.Error("empty hello grew content")
	}
	tc, err := UnmarshalTC(MarshalTC(&TC{Origin: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Links) != 0 {
		t.Error("empty tc grew content")
	}
}

// Property: round trips preserve arbitrary messages.
func TestHelloRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(origin int64, seq uint16, nLinks, nMPRs uint8) bool {
		h := &Hello{Origin: origin, Seq: seq}
		for i := 0; i < int(nLinks%32); i++ {
			h.Links = append(h.Links, LinkInfo{Neighbor: rng.Int63(), Weight: rng.Float64() * 100})
		}
		for i := 0; i < int(nMPRs%16); i++ {
			h.MPRs = append(h.MPRs, rng.Int63())
		}
		got, err := UnmarshalHello(MarshalHello(h))
		if err != nil {
			return false
		}
		if got.Origin != h.Origin || got.Seq != h.Seq ||
			len(got.Links) != len(h.Links) || len(got.MPRs) != len(h.MPRs) {
			return false
		}
		for i := range h.Links {
			if got.Links[i] != h.Links[i] {
				return false
			}
		}
		for i := range h.MPRs {
			if got.MPRs[i] != h.MPRs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(origin int64, seq, ansn uint16, nLinks uint8) bool {
		tc := &TC{Origin: origin, Seq: seq, ANSN: ansn}
		for i := 0; i < int(nLinks%32); i++ {
			tc.Links = append(tc.Links, LinkInfo{Neighbor: rng.Int63(), Weight: rng.Float64() * 100})
		}
		got, err := UnmarshalTC(MarshalTC(tc))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tcNorm(tc), tcNorm(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func tcNorm(t *TC) TC {
	c := *t
	if len(c.Links) == 0 {
		c.Links = nil
	}
	return c
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalHello(nil); err == nil {
		t.Error("nil hello accepted")
	}
	if _, err := UnmarshalTC([]byte{byte(MsgTC), 0, 1}); err == nil {
		t.Error("short tc accepted")
	}
	if _, err := UnmarshalHello(MarshalTC(&TC{Origin: 1})); err == nil {
		t.Error("tc decoded as hello")
	}
	if _, err := UnmarshalTC(MarshalHello(&Hello{Origin: 1})); err == nil {
		t.Error("hello decoded as tc")
	}
	// Truncated link section.
	h := MarshalHello(&Hello{Origin: 1, Links: []LinkInfo{{Neighbor: 2, Weight: 3}}})
	if _, err := UnmarshalHello(h[:len(h)-4]); err == nil {
		t.Error("truncated hello accepted")
	}
	tc := MarshalTC(&TC{Origin: 1, Links: []LinkInfo{{Neighbor: 2, Weight: 3}}})
	if _, err := UnmarshalTC(tc[:len(tc)-1]); err == nil {
		t.Error("truncated tc accepted")
	}
	if _, err := PeekType([]byte{99}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := PeekType(nil); err == nil {
		t.Error("empty buffer accepted")
	}
	if tp, err := PeekType(MarshalHello(&Hello{Origin: 1})); err != nil || tp != MsgHello {
		t.Error("PeekType failed on hello")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgHello.String() != "HELLO" || MsgTC.String() != "TC" {
		t.Error("message type names")
	}
	if MsgType(9).String() != "MsgType(9)" {
		t.Error("unknown type name")
	}
}

func TestTCDeltaRoundTrip(t *testing.T) {
	for _, d := range []*TCDelta{
		{Origin: 3, Seq: 12, ANSN: 77, FullSeq: 9, Index: 3,
			Add: []LinkInfo{{Neighbor: 5, Weight: 1.5}, {Neighbor: 8, Weight: 2}},
			Del: []int64{2, -6}},
		{Origin: -1, Seq: 65535, ANSN: 0, FullSeq: 65534, Index: 1},
		{Origin: 4, Seq: 1, FullSeq: 0, Index: 2, Del: []int64{9}},
	} {
		got, err := UnmarshalTCDelta(MarshalTCDelta(d))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, got) {
			t.Errorf("round trip mismatch:\n%+v\n%+v", d, got)
		}
	}
	if tp, err := PeekType(MarshalTCDelta(&TCDelta{Origin: 1, Index: 1})); err != nil || tp != MsgTCDelta {
		t.Error("PeekType failed on tc delta")
	}
	if MsgTCDelta.String() != "TC-DELTA" {
		t.Error("tc delta type name")
	}
}

func TestTCDeltaRejectsMalformed(t *testing.T) {
	if _, err := UnmarshalTCDelta(nil); err == nil {
		t.Error("nil delta accepted")
	}
	if _, err := UnmarshalTCDelta(MarshalTC(&TC{Origin: 1})); err == nil {
		t.Error("tc decoded as delta")
	}
	// A zero chain index is never emitted: Index is 1-based, the full TC
	// itself being position 0.
	if _, err := UnmarshalTCDelta(MarshalTCDelta(&TCDelta{Origin: 1, Index: 0})); err == nil {
		t.Error("zero chain index accepted")
	}
	d := MarshalTCDelta(&TCDelta{Origin: 1, Index: 1,
		Add: []LinkInfo{{Neighbor: 2, Weight: 3}}, Del: []int64{4}})
	if _, err := UnmarshalTCDelta(d[:len(d)-1]); err == nil {
		t.Error("truncated delta accepted")
	}
	if _, err := UnmarshalTCDelta(append(append([]byte(nil), d...), 0xff)); err == nil {
		t.Error("delta with trailing garbage accepted")
	}
}
