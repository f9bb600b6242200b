package main

// This file is the benchmark's contract in one place: the workloads, and
// every metric with its unit, direction and regression bound. BENCHMARK.json
// is generated from it (`qolsr-bench manifest`) and a test keeps the two
// identical.

// workloadDef is one named workload. Names are permanent: results are
// only comparable across commits under the same name.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// sim marks the four simulated workloads, whose statistics repeat
	// bit for bit for a fixed seed.
	sim bool
	// link states what the packets crossed.
	link string
	run  func(c *repCtx) error
}

var workloads = []workloadDef{
	{
		name: "scale-1500", sim: true, link: "simulated",
		why: "1,500-node constant-density field, ideal medium: control-plane ingest (HandleTC), GC and per-node memory dominate; the data plane is under 5%",
		run: runScale,
	},
	{
		name: "traffic-ideal", sim: true, link: "simulated",
		why: "200 nodes, 64 sustained flows on the ideal medium: data plane, traffic accounting and the scheduler dominate; control is a quarter",
		run: runTraffic(false),
	},
	{
		name: "traffic-lossy", sim: true, link: "simulated",
		why: "same field and flows on the lossy queued medium: transmit queues, keyed loss draws and packets dying mid-path, which the ideal medium bypasses",
		run: runTraffic(true),
	},
	{
		name: "mobile-dense", sim: true, link: "simulated",
		why: "random-waypoint scenario at degree 14: local-view rebuilds, FNBP and MPR selection dominate — the only workload where the paper's algorithm is the hot path",
		run: runMobile,
	},
	{
		name: "mesh-mem", link: "in-process",
		why: "20 real daemons on the in-memory fabric, closed-loop window 2: frame/data codecs, routeData and the run-loop hand-off with the kernel taken out",
		run: runMesh(false),
	},
	{
		name: "mesh-udp", link: "host-loopback",
		why: "the same mesh on 127.0.0.1 UDP sockets (host loopback, not a real link): socket syscalls, the read loop's copy and the inbound queue dominate",
		run: runMesh(true),
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type metricKind int

const (
	// kindE2E metrics are host-time or host-memory figures that are
	// defined, and never 0, on every workload. They come from timed
	// (untraced) reps and are BENCHMARK.json's end_to_end.
	kindE2E metricKind = iota
	// kindExt metrics are end-to-end figures that only some workloads
	// define (daemon latency, packet rate) or that are simulated results
	// (delivery, control overhead, the advertised-set size). They too come
	// from timed reps and compare judges them with their bound, but
	// BENCHMARK.json must list them under per_layer: its end_to_end metrics
	// have to exist on every workload and hold steady when the seed varies.
	kindExt
	// kindLayer metrics come from the traced rep only.
	kindLayer
)

// metricDef is one metric of the contract.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	kind   metricKind
	// bound is the share of the baseline median by which the metric may
	// worsen before compare reports a regression; 0 means informational.
	bound float64
	// floor is the absolute change below which a worsening is ignored —
	// small values jitter by large shares.
	floor float64
	// exact marks a simulated statistic: on a sim workload and equal
	// seeds, any difference at all is a behaviour change.
	exact bool
	// strict marks a failure ratio: any rise at all is a regression, on
	// every workload.
	strict bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// hostBound is the regression bound of every host-time and host-memory
// metric. It is the ceiling BENCHMARK.json allows, because that is what
// this kind of machine supports: on the shared 2-vCPU VM the benchmark was
// sized on, ten runs of one commit on ten seeds spread (interquartile range
// over median) by 5–15 % depending on the hour (19 % for cpu_s on
// mesh-udp at worst), mostly as drift over minutes that more reps per run
// do not average away. Tighten it when the benchmark moves to quieter hardware.
const hostBound = 0.25

// metricDefs lists every metric, end-to-end first.
var metricDefs = []metricDef{
	// Set-up covers process spawn to the start of the timed region: exec,
	// runtime start, topology, NewNetwork / node.New, and the warm-up or
	// convergence that the workload does not time.
	{name: "setup_s", unit: "s", better: lower, kind: kindE2E, bound: hostBound, floor: 0.05},
	{name: "wall_s", unit: "s", better: lower, kind: kindE2E, bound: hostBound},
	{name: "cpu_s", unit: "s", better: lower, kind: kindE2E, bound: hostBound},
	{name: "peak_rss_mb", unit: "MB", better: lower, kind: kindE2E, bound: hostBound, floor: 4},
	{name: "events_per_s", unit: "1/s", better: higher, kind: kindE2E, bound: hostBound},
	{name: "allocs_per_op", unit: "count", better: lower, kind: kindE2E, bound: hostBound, floor: 0.01},

	// End-to-end figures that only some workloads define, and simulated
	// statistics. A different seed is a different field, so the simulated
	// ones are judged where they can be judged exactly: by compare under
	// equal seeds, and by the digest.
	{name: "pkts_per_s", unit: "1/s", better: higher, kind: kindExt, bound: hostBound},
	{name: "delivery_ratio", unit: "ratio", better: higher, kind: kindExt, bound: 0.001, exact: true},
	{name: "ctrl_bytes_per_node_s", unit: "B/s", better: lower, kind: kindExt, bound: 0.05, exact: true},
	{name: "olsr.ans_size_mean", unit: "links", better: lower, kind: kindExt, bound: 0.05, exact: true},
	{name: "sim.data.fail_ratio", unit: "ratio", better: lower, kind: kindExt, strict: true},
	{name: "node.converge_s", unit: "s", better: lower, kind: kindExt, bound: hostBound, floor: 0.05},
	{name: "node.fwd_latency_p50_us", unit: "us", better: lower, kind: kindExt, bound: hostBound},
	{name: "node.fwd_latency_p99_us", unit: "us", better: lower, kind: kindExt, bound: hostBound},
	{name: "node.fail_ratio", unit: "ratio", better: lower, kind: kindExt, strict: true},

	layer("des.events", "count", lower),
	layer("des.heap_high_water", "count", lower),
	layer("des.schedule_ns", "ns", lower),
	layer("des.fixed_lane_ns", "ns", lower),
	layer("des.cpu_share", "ratio", lower),

	layer("olsr.hello_msgs", "count", lower),
	layer("olsr.tc_msgs", "count", lower),
	layer("olsr.tc_forwarded", "count", lower),
	layer("olsr.adv_refresh", "count", higher),
	layer("olsr.adv_change", "count", lower),
	layer("olsr.shared_adv_rate", "ratio", higher),
	layer("olsr.spf_full", "count", lower),
	layer("olsr.spf_incremental", "count", lower),
	layer("olsr.topo_builds", "count", lower),
	layer("olsr.heap_bytes_per_node", "B", lower),
	layer("olsr.codec_hello_ns", "ns", lower),
	layer("olsr.codec_tc_ns", "ns", lower),
	layer("olsr.handle_hello_ns", "ns", lower),
	layer("olsr.handle_tc_refresh_ns", "ns", lower),
	layer("olsr.handle_tc_change_ns", "ns", lower),
	layer("olsr.routes_repair_ns", "ns", lower),
	layer("olsr.recompute_ns", "ns", lower),
	layer("olsr.cpu_share", "ratio", lower),

	layer("core.fnbp_select_ns", "ns", lower),
	layer("mpr.select_ns", "ns", lower),
	layer("graph.first_hops_ns", "ns", lower),
	layer("graph.spf_ns", "ns", lower),
	layer("core.cpu_share", "ratio", lower),
	layer("mpr.cpu_share", "ratio", lower),
	layer("graph.cpu_share", "ratio", lower),

	layer("sim.dup_suppressed", "count", lower),
	layer("sim.medium.frames_planned", "count", lower),
	layer("sim.medium.receptions", "count", lower),
	layer("sim.medium.receptions_lost", "count", lower),
	layer("sim.medium.frames_stalled", "count", lower),
	layer("sim.medium.stall_ms", "ms", lower),
	layer("sim.data.sent", "count", higher),
	layer("sim.data.delivered", "count", higher),
	layer("sim.data.lost", "count", lower),
	layer("sim.data.no_route", "count", lower),
	layer("sim.data.expired", "count", lower),
	layer("sim.data.hops_mean", "count", lower),
	layer("sim.new_network_ms", "ms", lower),
	layer("sim.warmup_ms", "ms", lower),
	layer("sim.rebuild_routes_ms", "ms", lower),
	layer("sim.rebuild_routes_tables", "count", lower),
	layer("sim.run_slice_ms_p50", "ms", lower),
	layer("sim.run_slice_ms_p99", "ms", lower),
	layer("sim.medium.plan_frame_ns", "ns", lower),
	layer("sim.data.marginal_ns_per_pkt", "ns", lower),
	layer("sim.cpu_share", "ratio", lower),

	layer("traffic.sent", "count", higher),
	layer("traffic.delivered", "count", higher),
	layer("traffic.admitted", "count", higher),
	layer("traffic.rejected", "count", lower),
	layer("traffic.gate_decide_ns", "ns", lower),
	layer("stats.quantile_add_ns", "ns", lower),
	layer("traffic.report_ms", "ms", lower),
	layer("traffic.cpu_share", "ratio", lower),
	layer("stats.cpu_share", "ratio", lower),

	layer("scenario.samples", "count", higher),
	layer("scenario.execute_ms", "ms", lower),
	layer("scenario.encode_json_ms", "ms", lower),
	layer("scenario.encode_csv_ms", "ms", lower),
	layer("scenario.cpu_share", "ratio", lower),

	layer("node.frames_in", "count", lower),
	layer("node.frames_out", "count", lower),
	layer("node.bytes_out", "B", lower),
	layer("node.tcs_forwarded", "count", lower),
	layer("node.data_forwarded", "count", lower),
	layer("node.data_dropped", "count", lower),
	layer("node.transport_drops", "count", lower),
	layer("node.decode_errors", "count", lower),
	layer("node.send_errors", "count", lower),
	layer("node.hops_mean", "count", lower),
	layer("node.send_call_us_p50", "us", lower),
	layer("node.status_ms_p50", "ms", lower),
	layer("node.frame_codec_ns", "ns", lower),
	layer("node.data_codec_ns", "ns", lower),
	layer("node.transport_rtt_ns", "ns", lower),
	layer("node.latency_per_hop_us", "us", lower),
	layer("node.fwd_latency_p999_us", "us", lower),
	layer("node.cpu_share", "ratio", lower),

	layer("runtime.gc_cycles", "count", lower),
	layer("runtime.alloc_mb", "MB", lower),
	layer("runtime.heap_live_mb", "MB", lower),
	layer("runtime.gc_pause_ms", "ms", lower),
	layer(gcShare, "ratio", lower),
	layer(allocShare, "ratio", lower),
	layer(schedShare, "ratio", lower),
	layer(harnessShare, "ratio", lower),
	// Traced wall over the untraced median: what the spans, the sliced
	// runs and the CPU profile cost.
	layer("trace.overhead_ratio", "ratio", lower),
	layer("trace.spans", "count", lower),
}

func layer(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, kind: kindLayer}
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
