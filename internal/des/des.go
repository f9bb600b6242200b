// Package des is the discrete-event scheduler at the bottom of the
// simulation stack: one deterministic priority queue in virtual time
// carrying everything the simulator does — HELLO/TC emissions, medium frame
// deliveries, traffic packet departures, phase actions and samples.
//
// Determinism is the design constraint. Events are totally ordered by
// (time, sequence): equal-time events run in scheduling (FIFO) order. The
// ordering never consults memory addresses, map iteration, or wall-clock
// state, so a run is a pure function of its inputs and stays bit-identical
// regardless of host, GOMAXPROCS, or how many worker goroutines drive
// *other* queues in parallel (each Queue itself is single-threaded, the unit
// of parallelism is one run).
//
// The timed store is a calendar queue. Virtual time is cut into buckets of
// bucketWidth; a ring of ringBuckets of them covers the horizon ahead of
// the bucket being drained, an occupancy bitmap skips the empty ones, and
// the few events booked beyond the horizon (periodic emitters, seconds
// ahead) wait in a small comparison heap. Scheduling inside the horizon is
// a link into a bucket's chain — O(1), no comparisons; a bucket is sorted
// once, when the clock reaches it, and then popped by index. The calendar
// is invisible to ordering: the sorted run, the ring and the overflow heap
// partition pending events by bucket number, and inside the run the order
// is the full (time, sequence) key, so the pop sequence is the one a
// single priority queue would produce. Three invariants carry that:
//
//   - Every pending event whose bucket is at or before the draining one
//     (cur) sits in the sorted run; everything in the ring or the overflow
//     heap belongs to a later bucket. An event booked into the draining
//     bucket — or before it, by a fixed-lane event that fires while the
//     calendar already points at a later bucket — is binary-inserted into
//     the run.
//   - A ring slot holds one bucket number at a time: ring events lie in
//     (cur, cur+ringBuckets], a window of ringBuckets consecutive buckets.
//   - Run peeks before it commits: it moves cur to the next occupied
//     bucket only when that bucket starts at or before its until. Callers
//     schedule between Run calls, and a run committed far ahead would turn
//     all of those bookings into sorted-array inserts.
//
// The fixed-delay lane sits beside the calendar: a stream whose scheduled
// times never decrease (every hop of a constant-latency medium) needs no
// bucket at all, only a FIFO whose head is merged with the run's head at
// pop time under the same total order.
//
// The hot path is allocation-free. Entries are stored by value (no
// per-event box) in storage that is reused whichever bucket an event lands
// in, and the Event interface admits pooled or persistent implementations:
// a periodic emitter is one long-lived Event that reschedules itself, a
// frame delivery is a pooled object recycled after Fire. Low-rate callers
// (phases, admissions, mobility refreshes) wrap a plain closure in Func (func
// values are pointer-shaped, so the interface conversion does not allocate).
package des

import (
	"math/bits"
	"slices"
	"time"
)

// Event is one scheduled occurrence. Fire runs it at its scheduled time;
// now is the queue's current virtual time (equal to the time the event was
// scheduled for). An Event may reschedule itself or schedule further events
// from inside Fire.
type Event interface {
	Fire(now time.Duration)
}

// Func adapts a plain closure to Event. func values are pointer-shaped, so
// converting a Func to Event allocates nothing beyond the closure itself.
type Func func()

// Fire implements Event.
func (f Func) Fire(time.Duration) { f() }

// The calendar's geometry, chosen from the delay distribution of the one
// workload whose every reception is its own timed event (the lossy queued
// medium under 64 flows: propagation + serialization + jitter + queue
// wait). 90 % of its 16.8 M bookings lie 1.05–2.1 ms ahead, 99.7 % inside
// 16.8 ms, the rest are HELLO/TC emitters 1–8 s out; it books one event per
// 19 µs of virtual time on average and holds at most 1,205. A 16.4 µs
// bucket therefore holds about one event (a handful inside a TC flood), so
// the sort on entry is trivial, and 2,048 buckets put the horizon at
// 33.5 ms — twice the longest data-frame delay — with a 256-byte bitmap
// and an 8 KB chain table that stay in L1.
const (
	bucketShift = 14 // bucketWidth = 1<<14 ns
	ringBuckets = 2048
	ringMask    = ringBuckets - 1
	ringWords   = ringBuckets / 64
)

// item is one queue entry, stored by value and pointer-free: the Event
// lives in a stable slot array and the entry holds only its ordering key
// plus the slot index, so moving entries between the ring, the run, the
// overflow heap and the lane is plain memmoves with no GC write barriers.
type item struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// before is the total event order: (time, sequence).
func (a item) before(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// compare is before as a three-way comparison (sequence numbers are
// unique, so two distinct items never compare equal).
func compare(a, b item) int {
	if a.before(b) {
		return -1
	}
	return 1
}

// bucketOf returns the calendar bucket number of a virtual time.
func bucketOf(t time.Duration) int64 { return int64(t >> bucketShift) }

// cell is the ring membership of the event in the slot of the same index:
// its entry and the next slot of its bucket's chain. A chain is circular —
// the bucket's table entry names its last cell, whose next is the first —
// so it appends and is walked in booking order. Chains live in this one
// arena, parallel to the slot array, so a warm queue books into any bucket
// without allocating.
type cell struct {
	it   item
	next int32
}

// Queue is a single-threaded discrete-event scheduler. The zero value is
// ready to use.
type Queue struct {
	now   time.Duration
	seq   uint64
	slots []Event // scheduled events, indexed by item.slot
	cells []cell  // ring chains, parallel to slots
	free  []int32 // recycled slot indices

	// The timed store: run is the draining bucket (number cur), sorted,
	// consumed from runHead; the ring is tail/occ at the end of the struct;
	// far is the beyond-horizon overflow heap. timed counts the events in
	// all three, ringed those in the ring.
	cur      int64
	run      []item
	runHead  int
	far      []item
	timed    int
	ringed   int
	ringNext int64 // the earliest occupied ring bucket, while ringed > 0

	// fifo is the fixed-delay fast lane: events whose scheduled times
	// arrive in non-decreasing order (every hop of a constant-latency
	// medium) sit in a plain queue and merge with the timed store at pop
	// time under the same total order.
	fifo     []item
	fifoHead int

	// Executed counts processed events.
	Executed uint64
	// FifoScheduled counts events that entered through the fixed-delay
	// lane (the rest of Scheduled() went through the timed store).
	FifoScheduled uint64
	// FarScheduled counts events booked beyond the calendar's horizon, into
	// the overflow heap: the share of Scheduled() that still pays for a
	// comparison heap. It is what makes the horizon checkable.
	FarScheduled uint64
	// HeapHighWater and FifoHighWater are occupancy peaks: the deepest the
	// timed store (every pending event outside the lane: draining run, ring
	// and overflow heap together) and the fixed-delay lane have been. They
	// are plain compares on the scheduling path — always on, observability
	// reads them lazily.
	HeapHighWater int
	FifoHighWater int

	// The ring: per slot, the last cell of the bucket's chain, meaningful
	// only while the slot's occupancy bit is set. Last in the struct, so the
	// scalars above share their cache lines with each other and not with
	// the tables.
	occ  [ringWords]uint64
	tail [ringBuckets]int32
}

// Scheduled returns the total number of events ever booked (timed store
// and fixed-delay lane; the sequence counter is bumped once per event).
func (q *Queue) Scheduled() uint64 { return q.seq }

// Now returns the current virtual time.
func (q *Queue) Now() time.Duration { return q.now }

// At books ev at absolute virtual time t (clamped to now for past times).
func (q *Queue) At(t time.Duration, ev Event) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	slot := q.alloc(ev)
	it := item{at: t, seq: q.seq, slot: slot}
	q.timed++
	if q.timed > q.HeapHighWater {
		q.HeapHighWater = q.timed
	}
	b := bucketOf(t)
	switch ahead := b - q.cur; {
	case ahead <= 0:
		q.insertRun(it)
	case ahead <= ringBuckets:
		s := b & ringMask
		c := &q.cells[slot]
		c.it = it
		if bit := uint64(1) << (s & 63); q.occ[s>>6]&bit != 0 {
			last := &q.cells[q.tail[s]]
			c.next, last.next = last.next, slot
		} else {
			c.next = slot
			q.occ[s>>6] |= bit
		}
		q.tail[s] = slot
		if q.ringed == 0 || b < q.ringNext {
			q.ringNext = b
		}
		q.ringed++
	default:
		q.FarScheduled++
		q.pushFar(it)
	}
}

// AfterFixed schedules ev after a delay (negative delays clamp to zero)
// through the fixed-delay fast lane. It is meant for steady streams whose
// delays are constant (so scheduled times never decrease); a
// call that would break the lane's time order falls back to the timed
// store, which preserves the exact global pop order either way — the lane
// is a performance hint, never a semantic one.
func (q *Queue) AfterFixed(d time.Duration, ev Event) {
	t := q.now + d
	if t < q.now {
		t = q.now
	}
	if n := len(q.fifo); n > q.fifoHead && q.fifo[n-1].at > t {
		q.At(t, ev)
		return
	}
	q.seq++
	q.FifoScheduled++
	if q.fifoHead > 0 && q.fifoHead >= len(q.fifo)/2 {
		q.fifo = q.fifo[:copy(q.fifo, q.fifo[q.fifoHead:])]
		q.fifoHead = 0
	}
	q.fifo = append(q.fifo, item{at: t, seq: q.seq, slot: q.alloc(ev)})
	if depth := len(q.fifo) - q.fifoHead; depth > q.FifoHighWater {
		q.FifoHighWater = depth
	}
}

// alloc stores ev in a stable slot and returns its index.
func (q *Queue) alloc(ev Event) int32 {
	if n := len(q.free); n > 0 {
		slot := q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = ev
		return slot
	}
	slot := int32(len(q.slots))
	q.slots = append(q.slots, ev)
	q.cells = append(q.cells, cell{})
	return slot
}

// After schedules ev after a delay.
func (q *Queue) After(d time.Duration, ev Event) { q.At(q.now+d, ev) }

// Run processes events in order until the queue empties or the next event
// lies beyond until, then advances virtual time to until. It returns the
// number of events processed by this call.
func (q *Queue) Run(until time.Duration) uint64 {
	var processed uint64
	for {
		// Merge the timed store and the fixed-delay lane under the one
		// total order: the run's head is the timed minimum, the lane is
		// min-ordered, so the overall minimum is whichever head sorts
		// first. A timed store whose next bucket starts beyond until has
		// nothing due and stays uncommitted.
		var top item
		fromFifo := false
		if q.runHead < len(q.run) || (q.timed > 0 && q.advance(until)) {
			top = q.run[q.runHead]
			if q.fifoHead < len(q.fifo) && q.fifo[q.fifoHead].before(top) {
				top = q.fifo[q.fifoHead]
				fromFifo = true
			}
		} else if q.fifoHead < len(q.fifo) {
			top = q.fifo[q.fifoHead]
			fromFifo = true
		} else {
			break
		}
		if top.at > until {
			break
		}
		ev := q.slots[top.slot]
		q.slots[top.slot] = nil
		q.free = append(q.free, top.slot)
		if fromFifo {
			q.fifoHead++
		} else {
			q.runHead++
			q.timed--
		}
		q.now = top.at
		ev.Fire(top.at)
		processed++
		q.Executed++
	}
	if q.now < until {
		q.now = until
	}
	return processed
}

// advance moves the calendar to the next occupied bucket — the earlier of
// the ring's next set bit and the overflow heap's top — and loads it into
// the run, sorted. The caller has found the run exhausted and the timed
// store non-empty. It reports false, committing nothing, when that bucket
// starts after until.
func (q *Queue) advance(until time.Duration) bool {
	next, inRing := q.ringNext, q.ringed > 0
	if len(q.far) > 0 {
		if b := bucketOf(q.far[0].at); !inRing || b < next {
			next, inRing = b, false
		} // b == next: the ring bucket loads first, the heap items join it below
	}
	if time.Duration(next)<<bucketShift > until {
		return false
	}
	q.cur = next
	run := q.run[:0]
	if inRing {
		s := next & ringMask
		q.occ[s>>6] &^= 1 << (s & 63)
		// Chains run in booking order, which for the equal and near-equal
		// times of one bucket is most of the way to sorted.
		last := q.tail[s]
		for c := q.cells[last].next; ; c = q.cells[c].next {
			run = append(run, q.cells[c].it)
			if c == last {
				break
			}
		}
		if q.ringed -= len(run); q.ringed > 0 {
			q.ringNext = q.nextRingBucket()
		}
	}
	for len(q.far) > 0 && bucketOf(q.far[0].at) == next {
		run = append(run, q.far[0])
		q.popFar()
	}
	if inRing { // the heap alone pops in order
		sortRun(run)
	}
	q.run, q.runHead = run, 0
	return true
}

// nextRingBucket returns the bucket number of the first occupied ring slot
// after cur. The ring must not be empty.
func (q *Queue) nextRingBucket() int64 {
	start := (q.cur + 1) & ringMask
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	// ringWords+1 words: the first one twice, high bits then low.
	for i := 0; word == 0 && i < ringWords; i++ {
		w = (w + 1) & (ringWords - 1)
		word = q.occ[w]
	}
	s := w<<6 + int64(bits.TrailingZeros64(word))
	return q.cur + 1 + (s-start)&ringMask
}

// sortRun sorts a freshly loaded bucket: by insertion while it is the few
// nearly-ordered entries the geometry is chosen for, by the library sort
// when a caller piles a whole schedule onto one instant.
func sortRun(run []item) {
	if len(run) > 32 {
		slices.SortFunc(run, compare)
		return
	}
	for i := 1; i < len(run); i++ {
		it := run[i]
		j := i
		for ; j > 0 && it.before(run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = it
	}
}

// insertRun books an event at or before the draining bucket: a binary
// insert into the live part of the run (events book forward in time, so the
// usual position is the end).
func (q *Queue) insertRun(it item) {
	if q.runHead == len(q.run) {
		q.run, q.runHead = q.run[:0], 0
	} else if len(q.run) == cap(q.run) && q.runHead > 0 {
		// Drop the consumed prefix instead of growing: a bucket that keeps
		// re-booking into itself must not grow the run without bound.
		q.run = q.run[:copy(q.run, q.run[q.runHead:])]
		q.runHead = 0
	}
	lo, hi := q.runHead, len(q.run)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); it.before(q.run[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.run = append(q.run, item{})
	copy(q.run[lo+1:], q.run[lo:])
	q.run[lo] = it
}

// The overflow is a 4-ary min-heap: half the depth of a binary heap, so
// half the moves on push. Its shape is invisible to ordering: before() is a
// total order (the sequence number is unique), so any min-heap pops the
// identical event sequence.

// pushFar sifts a new item up the overflow heap.
func (q *Queue) pushFar(it item) {
	h := append(q.far, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !it.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	q.far = h
}

// popFar removes the overflow heap's minimum (the caller has already read
// q.far[0]).
func (q *Queue) popFar() {
	h := q.far
	last := len(h) - 1
	it := h[last]
	h = h[:last]
	q.far = h
	if last == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(it) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = it
}
