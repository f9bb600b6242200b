package des

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// record appends its tag to a shared trace when fired.
type record struct {
	tag   int
	trace *[]int
}

func (r *record) Fire(time.Duration) { *r.trace = append(*r.trace, r.tag) }

// TestTieBreakOrdering pins the total event order: time first, then
// scheduling order — never insertion position or address.
func TestTieBreakOrdering(t *testing.T) {
	var q Queue
	var trace []int
	add := func(at time.Duration, tag int) {
		q.At(at, &record{tag: tag, trace: &trace})
	}
	// Scheduled deliberately out of order.
	add(2*time.Second, 4)
	add(time.Second, 1) // FIFO before the next two
	add(time.Second, 2)
	add(0, 0)
	add(2*time.Second, 5) // FIFO after tag 4
	add(time.Second, 3)

	q.Run(10 * time.Second)
	want := []int{0, 1, 2, 3, 4, 5}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestPastClamp schedules an event in the past and expects it to run "now".
func TestPastClamp(t *testing.T) {
	var q Queue
	q.Run(5 * time.Second)
	var at time.Duration = -1
	q.At(time.Second, Func(func() { at = q.Now() }))
	q.Run(10 * time.Second)
	if at != 5*time.Second {
		t.Fatalf("past event ran at %v, want clamped to 5s", at)
	}
}

// TestPastClampFixedLane is TestPastClamp through AfterFixed: a negative
// delay on an empty lane must run "now", not pull virtual time backwards.
func TestPastClampFixedLane(t *testing.T) {
	var q Queue
	q.Run(5 * time.Second)
	var at time.Duration = -1
	q.AfterFixed(-time.Second, Func(func() { at = q.Now() }))
	q.Run(10 * time.Second)
	if at != 5*time.Second {
		t.Fatalf("negative-delay lane event ran at %v, want clamped to 5s", at)
	}
	if q.Now() != 10*time.Second {
		t.Fatalf("Now = %v after Run(10s)", q.Now())
	}
}

// TestRunBoundary: Run(until) leaves an event due after until pending, and
// runs it once until reaches its time.
func TestRunBoundary(t *testing.T) {
	var q Queue
	ran := false
	q.At(5*time.Second, Func(func() { ran = true }))
	q.Run(4 * time.Second)
	if ran {
		t.Error("future event executed")
	}
	if pending := q.Scheduled() - q.Executed; pending != 1 {
		t.Errorf("%d events pending", pending)
	}
	q.Run(5 * time.Second)
	if !ran {
		t.Error("due event not executed")
	}
}

// TestNestedScheduling: an event that books its successor from inside Fire
// runs the whole chain within one Run, which still ends at until.
func TestNestedScheduling(t *testing.T) {
	var q Queue
	count := 0
	var tick Func
	tick = func() {
		count++
		if count < 5 {
			q.After(time.Second, tick)
		}
	}
	q.After(time.Second, tick)
	q.Run(time.Minute)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if q.Now() != time.Minute {
		t.Errorf("Now = %v", q.Now())
	}
}

// TestHeapAgainstSort drives the queue with a large random schedule and
// checks the pop order against a stable reference sort of (time, seq).
func TestHeapAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type key struct {
		at  time.Duration
		seq int
	}
	var q Queue
	var keys []key
	var got []key
	for i := 0; i < 5000; i++ {
		k := key{at: time.Duration(rng.Intn(50)) * time.Millisecond, seq: i}
		keys = append(keys, k)
		kk := k
		q.At(k.at, Func(func() { got = append(got, kk) }))
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].at < keys[j].at })
	q.Run(time.Second)
	if len(got) != len(keys) {
		t.Fatalf("executed %d events, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], keys[i])
		}
	}
	if q.Executed != uint64(len(keys)) {
		t.Fatalf("Executed = %d, want %d", q.Executed, len(keys))
	}
}

// selfScheduler re-books itself until a deadline — the persistent-event
// shape every periodic emitter uses.
type selfScheduler struct {
	q     *Queue
	every time.Duration
	until time.Duration
	fires int
}

func (s *selfScheduler) Fire(now time.Duration) {
	s.fires++
	if now+s.every <= s.until {
		s.q.After(s.every, s)
	}
}

// TestSteadyStateAllocFree checks that a warm queue driving a persistent
// event allocates nothing per event — the property the pooled hot path is
// built on.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue
	ev := &selfScheduler{q: &q, every: time.Millisecond, until: 1<<62 - 1}
	q.After(0, ev)
	q.Run(10 * time.Millisecond) // warm the heap storage
	end := q.Now()
	per := testing.AllocsPerRun(100, func() {
		end += 10 * time.Millisecond
		q.Run(end)
	})
	if per > 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per call, want 0", per)
	}
}

// burstEmitter is the lossy medium's shape: each firing books a burst of
// per-receiver receptions — one equal base delay (propagation +
// serialization) plus a jitter draw each — and re-books itself. The
// receptions are persistent events, as the simulator's pooled ones are.
type burstEmitter struct {
	q      *Queue
	every  time.Duration
	rx     []Func
	jitter uint64 // LCG state
}

// burstDegree is the mean physical degree of the traffic workloads' field.
const burstDegree = 11

// startBurstEmitters books n emitters with slightly different periods, so
// their bursts drift across each other instead of staying in lockstep.
func startBurstEmitters(q *Queue, n int) {
	for i := 0; i < n; i++ {
		em := &burstEmitter{q: q, every: time.Duration(900+i) * time.Microsecond, jitter: uint64(i)}
		for r := 0; r < burstDegree; r++ {
			em.rx = append(em.rx, func() {})
		}
		q.After(time.Duration(i)*time.Microsecond, em)
	}
}

func (em *burstEmitter) Fire(time.Duration) {
	const base = 1300 * time.Microsecond
	for _, rx := range em.rx {
		em.jitter = em.jitter*6364136223846793005 + 1442695040888963407
		em.q.After(base+time.Duration(em.jitter>>33)%(200*time.Microsecond), rx)
	}
	em.q.After(em.every, em)
}

// TestSteadyStateAllocFree's lossy-shaped twin: bursts of jittered
// receptions land in many different calendar buckets, and a warm queue must
// still book and drain them without allocating.
func TestSteadyStateAllocFreeBursts(t *testing.T) {
	var q Queue
	startBurstEmitters(&q, 32)
	q.Run(50 * time.Millisecond) // warm the slot, ring and run storage
	end := q.Now()
	per := testing.AllocsPerRun(100, func() {
		end += 10 * time.Millisecond
		q.Run(end)
	})
	if per > 0 {
		t.Fatalf("steady-state burst Run allocates %.1f objects per call, want 0", per)
	}
	if q.FarScheduled != 0 {
		t.Fatalf("%d burst events overflowed the horizon", q.FarScheduled)
	}
}

// BenchmarkScheduler measures raw scheduler throughput: one persistent
// self-rescheduling event processed per iteration, the floor cost every
// simulated packet or frame pays.
func BenchmarkScheduler(b *testing.B) {
	var q Queue
	ev := &selfScheduler{q: &q, every: time.Microsecond, until: 1<<62 - 1}
	q.After(0, ev)
	b.ReportAllocs()
	b.ResetTimer()
	end := q.Now()
	for i := 0; i < b.N; i++ {
		end += time.Microsecond
		q.Run(end)
	}
	b.ReportMetric(float64(q.Executed)/b.Elapsed().Seconds(), "events/s")
}

// fixedSelfScheduler is selfScheduler on the fixed-delay lane.
type fixedSelfScheduler struct {
	q     *Queue
	every time.Duration
	until time.Duration
	fires int
}

func (s *fixedSelfScheduler) Fire(now time.Duration) {
	s.fires++
	if now+s.every <= s.until {
		s.q.AfterFixed(s.every, s)
	}
}

// BenchmarkSchedulerFixedLane is BenchmarkScheduler through AfterFixed: a
// constant-delay stream rides the FIFO lane instead of the heap, the path
// every hop of a constant-latency medium takes.
func BenchmarkSchedulerFixedLane(b *testing.B) {
	var q Queue
	ev := &fixedSelfScheduler{q: &q, every: time.Microsecond, until: 1<<62 - 1}
	q.After(0, ev)
	b.ReportAllocs()
	b.ResetTimer()
	end := q.Now()
	for i := 0; i < b.N; i++ {
		end += time.Microsecond
		q.Run(end)
	}
	b.ReportMetric(float64(q.Executed)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSchedulerPending keeps 2,048 events pending at scattered
// delays, each firing booking its successor — the shape of the harness's
// des.schedule_ns probe, and unlike BenchmarkScheduler's one-entry queue one
// where the store's structure shows. "horizon" scatters over 4 ms, inside
// the calendar ring; "far" over a second, which the overflow heap carries.
func BenchmarkSchedulerPending(b *testing.B) {
	for _, bc := range []struct {
		name string
		span time.Duration
	}{{"horizon", 4 * time.Millisecond}, {"far", time.Second}} {
		b.Run(bc.name, func(b *testing.B) {
			var q Queue
			rng := rand.New(rand.NewSource(3))
			left := b.N
			var chain Func
			chain = func() {
				if left > 0 {
					left--
					q.After(1+time.Duration(rng.Int63n(int64(bc.span))), chain)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < 2048; i++ {
				chain()
			}
			q.Run(1<<62 - 1)
			b.ReportMetric(float64(q.Executed)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSchedulerBurst is flood-shaped: 64 emitters each booking bursts
// of 11 equal-base, jittered receptions, one iteration per event.
func BenchmarkSchedulerBurst(b *testing.B) {
	var q Queue
	startBurstEmitters(&q, 64)
	q.Run(50 * time.Millisecond)
	start := q.Executed
	b.ReportAllocs()
	b.ResetTimer()
	for end := q.Now(); q.Executed-start < uint64(b.N); {
		end += time.Millisecond
		q.Run(end)
	}
	b.ReportMetric(float64(q.Executed-start)/b.Elapsed().Seconds(), "events/s")
}

// TestFixedLaneAgainstSort mixes heap scheduling with the fixed-delay lane
// and checks the merged pop order is still the one total (time, sequence)
// order — including AfterFixed calls whose times regress, which
// must fall back to the heap rather than corrupt the lane's time order.
func TestFixedLaneAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type key struct {
		at  time.Duration
		seq int
	}
	var q Queue
	var keys []key
	var got []key
	for i := 0; i < 5000; i++ {
		at := time.Duration(rng.Intn(50)) * time.Millisecond
		k := key{at: at, seq: i}
		if rng.Intn(2) == 0 {
			kk := k
			q.At(at, Func(func() { got = append(got, kk) }))
		} else {
			kk := k
			// q.now is 0 outside Run, so the delay is the absolute time;
			// the random sequence regresses constantly, exercising the
			// heap fallback alongside the lane.
			q.AfterFixed(at, Func(func() { got = append(got, kk) }))
		}
		keys = append(keys, k)
	}
	if pending := q.Scheduled() - q.Executed; pending != uint64(len(keys)) {
		t.Fatalf("%d events pending, want %d", pending, len(keys))
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].at < keys[j].at })
	q.Run(time.Second)
	if len(got) != len(keys) {
		t.Fatalf("executed %d events, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], keys[i])
		}
	}
}

// TestFixedLaneSteadyStream drives a self-rescheduling event through the
// fixed lane only — the constant-delay hop stream the lane exists for —
// and checks order against an equal-rate heap stream.
func TestFixedLaneSteadyStream(t *testing.T) {
	var q Queue
	var trace []int
	var lane, heap func()
	lane = func() {
		trace = append(trace, 0)
		if q.Now() < 40*time.Millisecond {
			q.AfterFixed(time.Millisecond, Func(lane))
		}
	}
	heap = func() {
		trace = append(trace, 1)
		if q.Now() < 40*time.Millisecond {
			q.After(time.Millisecond, Func(heap))
		}
	}
	// The lane event is scheduled first at every instant, so it must run
	// first at every instant.
	q.AfterFixed(time.Millisecond, Func(lane))
	q.After(time.Millisecond, Func(heap))
	q.Run(time.Second)
	if len(trace) == 0 || len(trace)%2 != 0 {
		t.Fatalf("trace length %d, want even and positive", len(trace))
	}
	for i := 0; i < len(trace); i += 2 {
		if trace[i] != 0 || trace[i+1] != 1 {
			t.Fatalf("instant %d ran as %v, want lane then heap", i/2, trace[i:i+2])
		}
	}
}

// The always-on accounting fields must track scheduling activity: total
// bookings, the fixed-lane share, and the occupancy high-water marks.
func TestQueueAccountingCounters(t *testing.T) {
	var q Queue
	noop := Func(func() {})
	for i := 0; i < 5; i++ {
		q.After(time.Duration(i)*time.Millisecond, noop)
	}
	for i := 0; i < 3; i++ {
		q.AfterFixed(10*time.Millisecond, noop)
	}
	if got := q.Scheduled(); got != 8 {
		t.Errorf("Scheduled() = %d, want 8", got)
	}
	if q.FifoScheduled != 3 {
		t.Errorf("FifoScheduled = %d, want 3", q.FifoScheduled)
	}
	if q.HeapHighWater != 5 {
		t.Errorf("HeapHighWater = %d, want 5", q.HeapHighWater)
	}
	if q.FifoHighWater != 3 {
		t.Errorf("FifoHighWater = %d, want 3", q.FifoHighWater)
	}
	q.Run(time.Second)
	if q.Executed != 8 {
		t.Errorf("Executed = %d, want 8", q.Executed)
	}
	// Draining moves no high-water mark.
	if q.HeapHighWater != 5 || q.FifoHighWater != 3 {
		t.Errorf("high-water moved on drain: heap %d fifo %d", q.HeapHighWater, q.FifoHighWater)
	}
}
