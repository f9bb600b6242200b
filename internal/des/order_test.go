package des

import (
	"math/rand"
	"testing"
	"time"
)

// The differential order driver: an op stream (bytes, so the fuzzer can
// mutate it) interleaves At/After/AfterFixed with Run(until) calls and with
// bookings made from inside Fire, and a reference model — the plain list of
// pending (time, sequence) keys — checks every single pop
// against the minimum of what is pending at that moment. That is the
// definition of the order; for a schedule booked up front it is the stable
// sort TestHeapAgainstSort compares against.

const (
	orderBucket  = time.Duration(1) << bucketShift
	orderHorizon = orderBucket * ringBuckets
	// orderMaxEvents bounds one op stream: the model's min scan is linear.
	orderMaxEvents = 3000
)

// orderDelays are the booking distances the calendar's branches turn on:
// now, now+ε, inside the draining bucket, exact bucket multiples, the
// millisecond a radio hop takes, the horizon's edge on both sides (the last
// ring slot, the first overflow bucket), many horizons ahead, and the past.
var orderDelays = []time.Duration{
	0,
	1,
	orderBucket / 3,
	orderBucket - 1,
	orderBucket,
	orderBucket + 1,
	7 * orderBucket,
	time.Millisecond,
	time.Millisecond + 137*time.Microsecond,
	orderHorizon - orderBucket,
	orderHorizon - 1,
	orderHorizon,
	orderHorizon + 1,
	orderHorizon + orderBucket,
	3 * orderHorizon,
	41*orderHorizon + 5,
	-1,
	-3 * time.Millisecond,
}

type orderKey struct {
	at  time.Duration
	seq uint64
}

func (a orderKey) before(b orderKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type orderDriver struct {
	t       *testing.T
	q       Queue
	ops     []byte
	pos     int
	pending []orderKey // the reference model
	booked  uint64
	fired   uint64
}

type orderEvent struct {
	d   *orderDriver
	key orderKey
}

// next returns the next op byte; an exhausted stream reads as zeros.
func (d *orderDriver) next() byte {
	if d.pos >= len(d.ops) {
		return 0
	}
	b := d.ops[d.pos]
	d.pos++
	return b
}

// book makes one booking chosen by two op bytes and records its key — the
// time clamped the way the queue documents — in the model.
func (d *orderDriver) book() {
	if d.booked >= orderMaxEvents {
		return
	}
	how, sel := d.next(), d.next()
	delay := orderDelays[int(sel)%len(orderDelays)]
	if sel >= 128 {
		delay += time.Duration(sel) * 911 // off the round values
	}
	now := d.q.Now()
	at := now + delay
	if at < now {
		at = now
	}
	d.booked++
	ev := &orderEvent{d: d, key: orderKey{at: at, seq: d.booked}}
	switch how % 3 {
	case 0:
		d.q.After(delay, ev)
	case 1:
		d.q.At(now+delay, ev)
	case 2:
		// The lane when the time order allows it, the timed store when it
		// does not; the key is the same either way.
		d.q.AfterFixed(delay, ev)
	}
	d.pending = append(d.pending, ev.key)
	if got := d.q.Scheduled(); got != d.booked {
		d.t.Fatalf("Scheduled() = %d after %d bookings", got, d.booked)
	}
}

// Fire checks this pop against the model and books up to two children.
func (e *orderEvent) Fire(now time.Duration) {
	d := e.d
	if now != e.key.at || d.q.Now() != now {
		d.t.Fatalf("event %+v fired at %v (Now %v)", e.key, now, d.q.Now())
	}
	min := 0
	for i, k := range d.pending {
		if k.before(d.pending[min]) {
			min = i
		}
	}
	if d.pending[min] != e.key {
		d.t.Fatalf("pop %d fired %+v, pending minimum is %+v", d.fired, e.key, d.pending[min])
	}
	last := len(d.pending) - 1
	d.pending[min] = d.pending[last]
	d.pending = d.pending[:last]
	d.fired++
	for n := d.next() % 3; n > 0; n-- {
		d.book()
	}
}

// run makes one Run(until) call: until is the current time, a point inside
// the current bucket, a bucket edge (and the nanosecond before it), or
// further out, so runs stop mid-bucket, on edges and across the horizon.
func (d *orderDriver) run() {
	sel := d.next()
	now := d.q.Now()
	edge := (now>>bucketShift + time.Duration(sel>>4)) << bucketShift
	var until time.Duration
	switch sel % 8 {
	case 0:
		until = now
	case 1:
		until = now + orderBucket/5
	case 2:
		until = edge
	case 3:
		until = edge - 1
	case 4:
		until = now + time.Millisecond
	case 5:
		until = now + orderHorizon
	case 6:
		until = now + orderHorizon/2 + time.Duration(sel)*1013
	case 7:
		until = now - time.Microsecond // a Run into the past processes nothing due
	}
	d.q.Run(until)
	if want := max(now, until); d.q.Now() != want {
		d.t.Fatalf("Now = %v after Run(%v) from %v", d.q.Now(), until, now)
	}
	for _, k := range d.pending {
		if k.at <= until {
			d.t.Fatalf("Run(%v) left %+v pending", until, k)
		}
	}
	if pending := d.q.Scheduled() - d.q.Executed; pending != uint64(len(d.pending)) {
		d.t.Fatalf("%d events pending, model holds %d", pending, len(d.pending))
	}
}

// driveOrder interprets one op stream and drains the queue at the end.
func driveOrder(t *testing.T, ops []byte) {
	d := &orderDriver{t: t, ops: ops}
	for d.pos < len(d.ops) {
		if d.next()%4 == 0 {
			d.run()
		} else {
			d.book()
		}
	}
	d.q.Run(d.q.Now() + 100*orderHorizon)
	if pending := d.q.Scheduled() - d.q.Executed; len(d.pending) != 0 || pending != 0 {
		t.Fatalf("drain left %d pending (model %d)", pending, len(d.pending))
	}
	if d.fired != d.booked || d.q.Executed != d.booked {
		t.Fatalf("fired %d, Executed %d, booked %d", d.fired, d.q.Executed, d.booked)
	}
	if d.q.FifoScheduled+d.q.FarScheduled > d.booked {
		t.Fatalf("lane %d + overflow %d exceed %d bookings", d.q.FifoScheduled, d.q.FarScheduled, d.booked)
	}
}

// orderSeedOps is a seeded op stream: the fuzz corpus' starting points and
// the streams TestQueueOrderInterleaved replays on every go test.
func orderSeedOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestQueueOrderInterleaved replays seeded op streams through the
// differential driver: every pop must be the pending minimum while bookings,
// lane fallbacks and partial runs interleave.
func TestQueueOrderInterleaved(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		driveOrder(t, orderSeedOps(seed, 4096))
	}
}

// FuzzQueueOrder hands the op stream to the fuzzer.
func FuzzQueueOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(orderSeedOps(seed, 512))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { driveOrder(t, ops) })
}
