package traffic

import (
	"runtime"
	"time"

	"qolsr/internal/stats"
)

// foldBatch is how many deliveries PacketDone buffers before it hands them
// to the fold worker. Chosen by measurement on the traffic-ideal benchmark
// workload (2.46 M deliveries a rep, 2-vCPU Xeon): at 256 and 1,024 every
// wake-up of the worker costs CPU on both cores, and 1,024 took 0.14 s more
// wall and 0.13 s more CPU a rep than 4,096; 8,192 measured as 4,096 does,
// and 16,384 bought nothing for 1.5 MB more peak RSS. Two batches of 24-byte
// deliveries are 192 KiB an engine.
const foldBatch = 4096

// dist is one traffic population's delivered-packet distribution — the
// fold's state. Only the goroutine that folds writes it: the worker while a
// batch is in flight, the event loop at a flush. It is its own allocation,
// apart from the producer's counters (flowState, classAcc), so the two
// cores never write the same cache lines.
type dist struct {
	delay    stats.Accumulator
	p95, p99 *stats.Quantile
	// p50 is kept for flows only (nil in class and total distributions):
	// the flow records are the only reports that carry a median.
	p50 *stats.Quantile
	// jitter is the inter-packet delay variation. A flow measures it
	// against its own previous delivery (lastDelay); its class and the
	// total fold the flow's differences.
	jitter    stats.Accumulator
	lastDelay time.Duration
	hasLast   bool
}

func newDist() *dist {
	return &dist{
		p95: stats.NewQuantile(0.95),
		p99: stats.NewQuantile(0.99),
	}
}

// add folds one delivered packet's delay.
func (d *dist) add(secs float64) {
	d.delay.Add(secs)
	d.p95.Add(secs)
	d.p99.Add(secs)
}

// delivery is one delivered packet waiting to be folded.
type delivery struct {
	flow, cls *dist
	latency   time.Duration
}

// fold applies a batch of deliveries in order to the flow, class and total
// distributions. Every accumulator sees the packets in delivery order, so
// the statistics do not depend on where the batch boundaries fall or on
// which goroutine folds.
func fold(total *dist, batch []delivery) {
	for i := range batch {
		p := &batch[i]
		secs := p.latency.Seconds()
		p.flow.add(secs)
		p.flow.p50.Add(secs)
		p.cls.add(secs)
		total.add(secs)
		if fl := p.flow; fl.hasLast {
			diff := p.latency - fl.lastDelay
			if diff < 0 {
				diff = -diff
			}
			j := diff.Seconds()
			fl.jitter.Add(j)
			p.cls.jitter.Add(j)
			total.jitter.Add(j)
		}
		p.flow.lastDelay = p.latency
		p.flow.hasLast = true
	}
}

// folder is a running fold worker: it folds each batch it receives and
// answers with a token on done, and closes done when work is closed. It
// holds nothing of its Engine but the distributions, so an Engine dropped
// without Report is still collected — and the cleanup registered on it
// closes work, which ends the worker.
//
// An engine has one worker for its run, not a goroutine per batch: starting
// a goroutine allocates a G unless the starting P holds a dead one, so a
// goroutine per batch would make the engine's allocation count depend on
// which P each earlier batch's goroutine ended on.
type folder struct {
	work    chan []delivery
	done    chan struct{}
	cleanup runtime.Cleanup
}

func (w *folder) run(total *dist) {
	for batch := range w.work {
		fold(total, batch)
		w.done <- struct{}{}
	}
	close(w.done)
}

// startFold starts the fold worker, when the process can run it beside the
// event loop: at GOMAXPROCS 1 full batches fold in place.
func (e *Engine) startFold() {
	if e.w != nil || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	w := &folder{work: make(chan []delivery, 1), done: make(chan struct{}, 1)}
	go w.run(e.total)
	w.cleanup = runtime.AddCleanup(e, func(work chan []delivery) { close(work) }, w.work)
	e.w = w
}

// handOff passes the full batch to the worker once the batch before it is
// folded, and goes on filling the other buffer. Without a worker it folds
// the batch in place.
func (e *Engine) handOff() {
	if e.startFold(); e.w == nil {
		e.flush()
		return
	}
	e.wait()
	if e.spare == nil {
		e.spare = make([]delivery, 0, foldBatch)
	}
	e.w.work <- e.batch
	e.batch, e.spare = e.spare, e.batch[:0]
	e.inFlight = true
}

// wait returns once the batch in flight, if any, is folded.
func (e *Engine) wait() {
	if e.inFlight {
		<-e.w.done
		e.inFlight = false
	}
}

// flush brings every distribution up to the last delivery: it waits for the
// batch in flight, then folds the rest in place. Anything that reads a dist
// calls it first.
func (e *Engine) flush() {
	e.wait()
	fold(e.total, e.batch)
	e.batch = e.batch[:0]
}

// stopFold ends the worker and waits for it to return. A later full batch
// starts a new one.
func (e *Engine) stopFold() {
	if e.w == nil {
		return
	}
	e.w.cleanup.Stop()
	close(e.w.work)
	for range e.w.done {
	}
	e.w, e.inFlight = nil, false
}
