// Package qolsr is a from-scratch reproduction of "Towards an efficient QoS
// based selection of neighbors in QOLSR" (Khadar, Mitton, Simplot-Ryl; SN
// 2010 workshop at IEEE ICDCS 2010).
//
// The paper's contribution is FNBP — "first node on best path" — a QoS
// Advertised Neighbor Set (QANS) selection rule for OLSR-style proactive
// routing in wireless ad hoc and sensor networks: each node computes, inside
// its two-hop local view, the QoS-optimal paths to every 1- and 2-hop
// neighbor and advertises a minimal set of optimal first hops. Compared to
// the original QOLSR MPR heuristics and to RNG topology filtering, FNBP
// advertises far fewer neighbors while keeping routed paths within a few
// percent of the centralized optimum.
//
// The package is organised file-per-concern:
//
//   - graph.go — the substrate: multi-channel weighted graphs, two-hop
//     local views, generalized Dijkstra, fP(u,v) first-hop sets, Poisson
//     deployments and unit-disk network generation, DOT rendering;
//   - metrics.go — the QoS metric algebra (bandwidth, delay, hop, energy,
//     lexicographic combinations) and its name registry;
//   - selection.go — the selection algorithms (FNBP, QOLSR MPR-1/MPR-2,
//     RFC 3626 greedy MPR, RNG topology filtering) and their registry;
//   - protocol.go — routing over advertised topologies and the full
//     OLSR/QOLSR protocol stack (HELLO/TC, MPR flooding, QoS routing
//     tables) over a discrete-event simulator, with mobility;
//   - experiment.go — the Runner API regenerating the paper's evaluation
//     (Figs. 6-9) and the repository's ablations;
//   - scenario.go — the Scenario API: declarative dynamic-network programs
//     on the live protocol stack.
//
// # Sweeps
//
// A Runner executes figures — by value or by registry name — as a
// cancellable parallel pipeline on the one cell loop every sweep shares:
// each (density point, run) is one job on the worker budget, runs fold into
// their point in run order, and completed points stream out while the
// sweep is in flight. Figures that share a
// sweep — Figs. 6 and 8 read one bandwidth sweep, Figs. 7 and 9 one delay
// sweep — simulate each of its points once. The ablations on the live
// protocol stack — A4 control, A7 loss, A8 load, O1 overhead and S1 scale,
// run by name through Runner.LiveGrid — are scenario grids on the same
// loop: a base Scenario, one axis that edits it per point (density, loss,
// per-flow load or node count), columns that edit it per column (selector,
// link sensing, metric × sensing or control plane), and quantities read
// off each cell's scenario run. Every cell executes under the grid's seed
// and its run index, so the columns of a (point, run) share one drawn
// field, and the tables, JSON and CSV are identical at every worker count.
// Their delivery column (A4, A7, O1) is the scenario's probe delivery:
// probes delivered over probes between connected ends, pooled over every
// sample from the warmup on.
//
// Figures, static ablations and live grids land in one result type: a
// Results holds one Sweep per request — its identity, axis points, columns
// and quantities, and one accumulator per (point, column, quantity) — with
// one table writer, one JSON encoder ("qolsr-sweep/v2": mean, ci95, std
// and n per cell) and one long-form CSV encoder. A figure's sweep carries
// every series its runs measure: set size, overhead, delivery, hops
// (directed delivery where measured), realised node count and skipped
// runs. Overhead averages over delivered pairs only, so every overhead
// table prints each protocol's delivery beside it.
//
//	fig6, err := qolsr.SweepByID("fig6")
//	fig8, err := qolsr.SweepByID("fig8")
//	r := qolsr.NewRunner(qolsr.WithRuns(100), qolsr.WithSeed(1),
//		qolsr.WithWorkers(8), qolsr.WithProgress(log.Printf))
//	res, err := r.Run(ctx, fig6, fig8)
//	res.WriteTables(os.Stdout)   // the paper's tables
//	res.EncodeJSON(os.Stdout)    // machine-readable ("qolsr-sweep/v2")
//	res.EncodeCSV(os.Stdout)     // long-form rows for plotting tools
//
// Results are deterministic: every run's RNG stream is derived by a
// splitmix64 mix of (seed, degree, run), so a fixed seed yields
// bit-identical output for any WithWorkers value. Cancelling the context
// stops dispatching work promptly and returns ctx.Err().
//
// For incremental consumption (live plotting, partial saves), Stream
// delivers each completed density point as it lands; until the figure's
// EventFigure, read only the event's point of its sweep:
//
//	events, wait := r.Stream(ctx, fig6)
//	for ev := range events {
//		if ev.Kind == qolsr.EventPoint {
//			s, i := ev.Sweep, ev.PointIndex
//			plot(s.ID, s.Points[i], s.Cell(i, "fnbp", qolsr.QuantityOverhead))
//		}
//	}
//	res, err := wait()
//
// # Scenarios
//
// The paper evaluates FNBP on static random graphs; the scenario layer runs
// the same protocol implementations through the dynamic regimes OLSR's
// soft-state timers exist for. A Scenario is a declarative program — a
// topology source (Poisson deployment or explicit points), a protocol
// configuration, a timeline of phases (link failures and restores,
// partitions, waypoint mobility) and a probe workload — executed on the
// live stack, with delivery ratio, hop stretch, routing overhead vs. the
// instantaneous optimum, control traffic, advertised-set sizes and
// post-churn reconvergence time sampled at a fixed virtual-time cadence.
// Built-ins resolve by name, parameterised by selector:
//
//	sc, err := qolsr.ScenarioByName("single-link-flap", "fnbp")
//	r := qolsr.NewRunner(qolsr.WithRuns(5), qolsr.WithSeed(1))
//	res, err := r.RunScenario(ctx, sc)
//	res.WriteTable(os.Stdout)   // aggregate table + reconvergence summary
//	res.EncodeJSON(os.Stdout)   // machine-readable ("qolsr-scenario/v2")
//
// Replicate runs share the Runner's worker budget on the cell loop the
// sweeps run on, with the same determinism guarantee: every run's RNG
// streams derive from (seed, run), so results are bit-identical for any
// WithWorkers value. Each replicate simulates on one goroutine; a
// replicate with traffic flows adds the traffic engine's fold worker when
// GOMAXPROCS ≥ 2, which folds deliveries in delivery order.
//
// # Radio medium
//
// Every transmission crosses a pluggable Medium that decides who receives
// each frame and after how long. The default ideal MAC is the paper's model
// (1 ms propagation delay per hop, no loss); the lossy medium adds per-link
// packet-error rates (base, distance-dependent and per-link components), a
// per-node transmit queue serializing at 1 Mbit/s per unit of the link's
// bandwidth weight, and uniform jitter below 200 µs — every draw keyed per
// (seed, src, dst, frame-seq) through splitmix64, so lossy simulations are
// reproducible at any worker count. On a lossy radio the protocol can
// measure its links instead of trusting the oracle:
// ProtocolConfig.LinkSensing = SenseDelivery derives link weights from
// windowed HELLO delivery ratios (ETX for additive metrics, the delivery
// product for concave ones), carried between link ends by a
// backward-compatible HELLO block. Scenarios select the medium declaratively (ScenarioMedium, the
// ActionSetLoss/ActionDegradeLink phases, the lossy-baseline and
// lossy-degrade built-ins), and the A7 grid (Runner.LiveGrid "loss")
// sweeps delivery against the loss rate comparing oracle against measured
// selection.
//
// # Traffic & QoS flows
//
// The traffic engine closes the loop on the paper's premise — flows with
// bandwidth and delay requirements. Flow classes (FlowClassCBR,
// FlowClassPoisson, FlowClassVideo — on-off bursty VBR) offer sustained
// load packet by packet through the live routing tables and the medium's
// transmit queues; an admission gate (AdmissionGate) walks the forwarding
// path the tables actually select and checks its composed bandwidth/delay
// against each flow's FlowRequirements before the flow may start, with an
// oracle feasibility judgment classifying every rejection as correct or
// false. Per-flow accounting reports delivery, throughput, delay
// mean/p50/p95/p99 (streaming P² quantiles), inter-packet jitter and a
// QoS verdict per flow; the mix's violation ratio — admitted flows whose
// measured traffic broke a bound — scores a selection policy under load.
// Scenarios carry a mix in ScenarioTraffic.Mix (the Flows probe count
// keeps its exact pre-engine behaviour), the load-ramp and
// video-vs-cbr built-ins exercise it, and the A8 grid (Runner.LiveGrid
// "load") sweeps QoS satisfaction against offered load, comparing the paper's
// QoS-based selection with hop-count selection under oracle and measured
// link sensing. All packet arrival and size draws are keyed per
// (seed, flow, packet-seq), so traffic runs are bit-identical at any
// worker count.
//
// # Real mesh daemon
//
// The same protocol engine deploys outside the simulator: internal/node
// wraps an olsr.Node in a daemon driven by wall-clock timers over a real
// UDP socket (cmd/qolsr-node is the CLI). Daemons exchange versioned
// frames carrying the standard HELLO/TC encodings, authenticate senders
// against a static peer table, and measure per-link delay from echo
// timestamps piggybacked on every frame — each completed exchange closes a
// round trip entirely in the sender's own clock, so no clock
// synchronization is needed. A windowed-minimum filter distils the samples
// into routing weights, data packets ride the daemons' own routing tables
// hop by hop, and an HTTP status endpoint reports neighbors, RTTs, the MPR
// set and the routing table as JSON. The wire codecs are fuzzed against
// hostile input; see the package documentation of internal/node and the
// README's "Running a real mesh" section.
//
// # Cached routing
//
// Protocol nodes follow link-state practice: routes are recomputed on state
// change, not on lookup. Every content-changing mutation of a node's soft
// state — a link update, HELLO/TC ingestion that alters advertised content,
// or a virtual-time expiry — bumps a topology version; the MPR/ANS
// selection and the routing table are cached artifacts rebuilt only when the
// version moved. A stale table's routing graph is laid out afresh, adjacency
// and arc arena included, in scratch the field's members share, and solved by
// one Dijkstra; the local view selection runs on is likewise rebuilt each
// time in a shared scratch and not kept. Re-announcements of unchanged
// content (the steady-state regime) merely extend validity deadlines, and a
// min-expiry watermark keeps the expiry check O(1) while nothing can be
// stale, so a converged network serves lookups from cache indefinitely.
// Node.Routes returns a read-only Routes snapshot with an allocation-free
// Lookup, the only thing a rebuild allocates: one pointer-free 16-byte entry
// per position of an ascending destination column, which names its next hop
// by column position, and a serial number no other table of the node
// carries. The column is the field's routing scratch's, shared by every
// table laid out over the same ids and never written, so a converged field
// keeps one copy of its ids instead of one per table. Successive calls
// between state changes return the same snapshot, and a retained snapshot
// stays consistent after its node or any other member rebuilds.
// The simulator's forwarding cache keys on that serial instead of holding the
// snapshot, so a superseded table is garbage as soon as its node rebuilds.
// Caching never changes which table a data packet sees at a given virtual
// time — only how it is computed — a guarantee locked by the golden and
// worker-determinism tests.
//
// # Event-driven core
//
// Everything the simulator does — HELLO/TC emissions, soft-state expiries,
// frame deliveries, traffic packet arrivals, phase actions and samples —
// flows through one discrete-event scheduler (internal/des) whose
// (time, sequence) total order never consults memory addresses,
// map iteration, or the wall clock: a run is a pure function of its inputs
// and stays bit-identical regardless of host or how many workers drive
// other runs in parallel. The timed store is a calendar queue: a ring of
// 16.4 µs buckets covering a 33.5 ms horizon (geometry chosen from the
// lossy medium's measured delay distribution), an occupancy bitmap to skip
// empty buckets, chains in one arena parallel to the event slots, and a
// small 4-ary heap for the few events booked beyond the horizon. Entries
// are pointer-free (the ordering key and a slot index), so every move is a
// plain memmove with no GC write barrier. Booking inside the horizon is
// O(1); a bucket is sorted once, when the clock reaches it, and popped by
// index. The pop order stays exactly the total order because everything at
// or before the draining bucket lives in that sorted run (late bookings are
// binary-inserted), a ring slot holds one bucket number at a time, and
// Run(until) never commits to a bucket that starts after until — callers
// book between Run calls. Beside it runs a fixed-delay FIFO lane: steady
// streams whose delays are constant — every hop of a constant-latency
// medium — need no bucket, enqueue in O(1) and merge with the timed store
// at pop time under the same total order, falling back to the calendar
// whenever a push would break the lane's time order. Around it, the hot path is
// allocation-free by construction: data packets, radio frames, and
// protocol emitters are pooled; control messages are never encoded — a
// HELLO travels by value in its pooled frame, a full TC by value in its
// flood's pooled state, and the byte counters add the codec's length
// functions (HelloLen, TCLen, TCDeltaLen, pinned to the encoders by the
// fuzzers); forwarding decisions are cached per
// (destination, node), in rows only for destinations data is sent to, and
// invalidated by table serial or link generation;
// flood duplicate suppression is one pooled visited bitset per flood,
// whose bits the ideal medium sets when a frame is sent — it lands every
// frame a constant delay later, in send order, so a frame carries only its
// receivers' first sightings and a duplicate costs one bit test;
// soft-state expiry is a single watermark comparison until something can
// actually be stale; and a stale routing table is rebuilt from scratch in
// linear time — a fresh layout plus one Dijkstra in pooled scratch — and
// only its snapshot is kept. The node-count scaling of the whole
// stack is a first-class experiment (the S1 grid, -ablation scale);
// cmd/qolsr-bench/baseline.json records the headline numbers.
//
// # Shared topology & serial rebuilds
//
// Big fields spend their time ingesting what they already know: in steady
// state every flooded TC re-announces an unchanged link set to N-1
// receivers. The topology store is built around that regime. Advertised
// link blocks are interned — an origin's normalized []LinkInfo is shared
// read-only between the emitter's cache, every in-flight message, and
// every receiver's topology entry, so the steady-state ingest path is one
// pointer comparison plus a deadline refresh, and a content change pays
// one linear comparison and a version bump.
//
// Per-node state is proportional to what the node has heard, laid out the
// way a flood walks it. The TC-learned rows of a whole field (olsr.NewNodes;
// olsr.NewNode is a field of one) live in one origin-major store: one block
// per origin, allocated when that origin is first heard, holding an 8-byte
// by-value row per member — so a flood to N receivers walks one contiguous
// block instead of N scattered tables, and the field holds N blocks instead
// of N² heap objects. A row holds no pointer: it names its advertised set in
// the block's small table of the distinct slices the members hold
// (deduplicated by identity and reference-counted), so the N² rows are
// memory the garbage collector never scans. Origin-to-slot is the identity inside the store's
// dense window (Config.DenseIDs is only a hint for its size) and one
// overflow map per store otherwise; slots nobody holds a row in are
// reclaimed. The neighbour-keyed tables (links, HELLO tables, MPR
// selectors) are sorted small tables of about the node's degree, whose
// ascending walk — the order the determinism contract already required —
// allocates nothing. Topology rows and neighbour state expire under
// separate watermarks, so the per-origin column scan runs only when a
// topology deadline is due. Node.StateSize reports what a node holds,
// selecting nothing; the registry sums its topology rows
// (qolsr_olsr_topology_rows) and the scenario sampler its advertised-set
// sizes. A routing
// graph is laid out in linear time with ascending ids, by the one function
// that also lays out the two-hop view (olsr's Node.layout, where the rule
// for which report of a link wins lives): its links are bucketed by their
// smaller end and each pair keeps its first report in precedence order, so
// the tables may be walked in any order. The graph lives
// only as long as the Dijkstra over it: its buffers are the one scratch the
// field's members share, and a node keeps nothing of a computation but the
// routing-table snapshot.
//
// Route tables are rebuilt serially, on the goroutine that owns the
// network: Network.RebuildRoutes brings the named nodes' tables up to date
// in node order between engine runs, so every call on a field is
// serialised and the protocol core carries no concurrency contract. The one
// parallel layer is the sweeps' cell loop, which runs independent
// simulations side by side. Rebuild activity is observable end to end:
// olsr.RebuildStats counts interning hits and routing tables computed per
// node, scenario samples carry the windowed series, and run totals report
// the epoch hit rate. BenchmarkTopologyRebuild (refresh and change) and
// BenchmarkRouteLayout track the two hot paths; the scale-1500 workload of
// cmd/qolsr-bench measures the whole (its baseline.json is the record).
//
// # Control-plane scaling
//
// Three opt-in optimisations make control overhead sublinear in density,
// all off by default and independently toggled through olsr.Config, and by
// name in a scenario's ScenarioProtocol.Plane (the O1 and S1 grids set it;
// the default is the RFC 3626 plane). Delta-encoded
// TCs (Config.DeltaTC) anchor a chain of incremental TC-DELTA messages —
// each carrying only the links added, reweighted or removed since the last
// advertisement — on a periodically refreshed full TC; a receiver applies a
// delta only when its (full sequence, chain index) extends the chain it is
// synced to, and a gap desynchronises it until the next full rebases the
// chain, so loss degrades to classic full-TC behaviour rather than stale
// topology. Fish-eye scoping (Config.Fisheye) alternates TC emissions
// between TTL 2 and unlimited — scoped emissions refresh nearby topology
// cheaply while the unlimited ones (TTL 0) reach the whole network; combined
// with DeltaTC, full TCs ride exactly the unlimited emissions. Min-cover
// flood relays (Config.MinCoverRelays) select a second, coverage-minimal relay
// set for flooding — RFC 3626 greedy plus redundancy pruning — decoupling
// flooding cost from the QoS-driven advertised set, which stays intact for
// routing. The O1 grid (-ablation overhead) measures each
// optimisation against the original QOLSR plane on identical fields;
// BENCH_overhead.json records its five-run result, regenerated by
// `qolsr-sim -ablation overhead -runs 100 -json BENCH_overhead.json`. Every
// plane delivers the same probes only because all of them route through the
// same kernel, and on O1's static fields at δ = 15 that kernel's loops hold
// every plane to the same delivery below 1 (the file's dlv column), so equal
// delivery there is not full delivery.
//
// # Observability
//
// internal/obs is one metrics-and-tracing layer shared by the simulator and
// the daemon, built to cost nothing while disabled. A Registry holds
// fixed-slot counters, gauges and histograms (atomics underneath, no maps
// on the hot path) plus lazy collectors that read existing counters only at
// snapshot time; zero-value handles and a nil *Tracer are inert no-ops, so
// the disabled path is a nil check. The contract is enforced, not assumed:
// disabled handles are zero-allocation by test, instrumenting the registry
// adds exactly 0 allocs/op to the BenchmarkTrafficEngine workload, and
// enabling metrics or tracing leaves a scenario's measurement JSON
// bit-identical — observability is a pure read layer over the deterministic
// core. Scenario runs export the merged registry snapshot
// (qolsr-sim scenario run -metrics-out, schema qolsr-metrics/v1) and
// sampled packet path traces (-trace, -trace-every N) as Chrome trace-event
// JSON loadable in Perfetto: one track per flow, one span per hop with the
// transmit-queue wait, a terminal event carrying the outcome. Sampling is
// keyed by rng.Mix(seed, flow, seq) — never arrival order — and events
// append in virtual event order, so traces are byte-identical at any worker
// count. The daemon serves the same registry live: /metrics on the -status
// listener is Prometheus text exposition backed by the cells the status
// JSON derives from, and -pprof mounts net/http/pprof on the same loopback
// listener.
//
// # Quick start
//
//	dep := qolsr.PaperDeployment(15)                  // δ=15, 1000×1000, R=100
//	rng := rand.New(rand.NewSource(1))
//	g, err := qolsr.BuildNetwork(dep, "bandwidth", qolsr.DefaultInterval(), rng)
//	...
//	view := qolsr.NewLocalView(g, someNode)
//	w, _ := g.Weights("bandwidth")
//	ans, err := qolsr.FNBP{}.Select(view, qolsr.Bandwidth(), w)
//
// See examples/ for runnable programs and cmd/qolsr-sim for the sweep CLI.
package qolsr
