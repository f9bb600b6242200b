package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{300000, 0.9999, true},
	}
	for _, tc := range cases {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarise(t *testing.T) {
	s := summarise("s", []float64{3, 1, 2})
	if s.Median != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Errorf("odd count: %+v", s)
	}
	s = summarise("s", []float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("even count: %+v", s)
	}
	if s.Raw[0] != 4 {
		t.Errorf("summarise reordered its input: %v", s.Raw)
	}
	if s = summarise("s", nil); s.Median != 0 || s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := quantile(sorted, 0.99); q != 10 {
		t.Errorf("p99 = %v, want 10", q)
	}
}

func TestJudge(t *testing.T) {
	flat := func(v float64) summary { return summarise("x", []float64{v, v, v}) }
	// Definitions of the test's own, so the verdicts do not move when a
	// bound in metrics.go is retuned.
	wall := metricDef{name: "wall_s", better: lower, bound: 0.10}
	rss := metricDef{name: "peak_rss_mb", better: lower, bound: 0.10, floor: 4}
	evs := metricDef{name: "events_per_s", better: higher, bound: 0.10}
	dlv := metricDef{name: "delivery_ratio", better: higher, bound: 0.001, exact: true}
	fail := metricDef{name: "node.fail_ratio", better: lower, strict: true}
	cases := []struct {
		name string
		def  metricDef
		sim  bool
		a, b summary
		want string
	}{
		{"within bound", wall, false, flat(10), flat(10.9), verdictOK},
		{"past bound", wall, false, flat(10), flat(11.1), verdictRegressed},
		{"better past bound", wall, false, flat(10), flat(8.5), verdictImproved},
		{"higher is better", evs, false, flat(100), flat(85), verdictRegressed},
		{"higher is better, improved", evs, false, flat(100), flat(115), verdictImproved},
		{"floor absorbs a large share of a small value", rss, false, flat(10), flat(13), verdictOK},
		{"past the floor", rss, false, flat(10), flat(15), verdictRegressed},
		{"exact metric, equal", dlv, true, flat(0.997), flat(0.997), verdictOK},
		{"exact metric, last digit", dlv, true, flat(0.997), flat(0.9969), verdictRegressed},
		{"exact metric off the simulator uses its bound", dlv, false, flat(1), flat(0.9995), verdictOK},
		{"any rise in a failure ratio", fail, false, flat(0), flat(0.00001), verdictRegressed},
		{"wide overlapping reps", wall, false,
			summarise("s", []float64{9, 10, 12}), summarise("s", []float64{9.5, 11.5, 12.5}), verdictUnresolved},
		{"wide but disjoint reps", wall, false,
			summarise("s", []float64{9, 10, 11.5}), summarise("s", []float64{12, 13, 14}), verdictRegressed},
	}
	for _, tc := range cases {
		if got := judge(tc.def, tc.sim, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	row := func(wall float64, digest string) workloadResult {
		return workloadResult{Name: "scale-1500", Digest: digest, EndToEnd: map[string]summary{
			"wall_s": summarise("s", []float64{wall, wall, wall}),
		}}
	}
	a := &resultFile{Schema: resultSchema, Workloads: []workloadResult{row(5, "aa")}}
	var out bytes.Buffer
	if n := compareFiles(&out, a, &resultFile{Workloads: []workloadResult{row(5.2, "aa")}}); n != 0 {
		t.Errorf("4%% slower counted as %d regressions:\n%s", n, out.String())
	}
	if n := compareFiles(&out, a, &resultFile{Workloads: []workloadResult{row(5*(1+2*hostBound), "aa")}}); n != 1 {
		t.Errorf("twice the bound slower counted as %d regressions", n)
	}
	if n := compareFiles(&out, a, &resultFile{Workloads: []workloadResult{row(5, "bb")}}); n != 1 {
		t.Errorf("changed digest counted as %d regressions", n)
	}
	if n := compareFiles(&out, a, &resultFile{}); n != 1 {
		t.Errorf("missing workload counted as %d regressions", n)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"qolsr/internal/olsr.(*Node).HandleTC", "qolsr/internal/sim.(*Network).deliver"}, "olsr.cpu_share"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, gcShare},
		{[]string{"runtime.gcBgMarkWorker"}, gcShare},
		// An allocating goroutine drafted into an assist is collecting.
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.growslice", "qolsr/internal/olsr.(*Node).markPair"}, gcShare},
		{[]string{"runtime.memmove", "runtime.growslice", "qolsr/internal/olsr.(*Node).markPair"}, allocShare},
		{[]string{"runtime.mallocgcSmallNoscan", "runtime.mallocgc", "runtime.newobject", "qolsr/internal/node.(*MemNetwork).deliver"}, allocShare},
		// The memmove a layer calls is that layer's time.
		{[]string{"runtime.memmove", "qolsr/internal/des.(*Queue).Run", "qolsr/internal/sim.(*Network).Run"}, "des.cpu_share"},
		// Helper packages are charged to the layer that called them.
		{[]string{"qolsr/internal/metric.bandwidth.Better", "qolsr/internal/graph.(*Scratch).Dijkstra", "qolsr/internal/olsr.(*Node).fullRoutes"}, "graph.cpu_share"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, schedShare},
		{[]string{"syscall.Syscall6", "syscall.sendto", "net.(*UDPConn).WriteTo", "qolsr/internal/node.(*UDPTransport).Send", "qolsr/internal/node.(*Daemon).sendTo"}, "node.cpu_share"},
		{[]string{"qolsr/cmd/qolsr-bench.(*mesh).generate", "qolsr/cmd/qolsr-bench.runMesh.func1"}, harnessShare},
		{[]string{"runtime.sigprof"}, harnessShare},
	}
	var samples []stackSample
	for _, tc := range cases {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
		samples = append(samples, stackSample{frames: tc.frames, weight: 10e6})
	}
	shares := foldShares(samples)
	var sum float64
	for name, v := range shares {
		if _, ok := metricByName(name); !ok {
			t.Errorf("share %q is not a defined metric", name)
		}
		sum += v
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("shares sum to %v, want 1 ± 0.02", sum)
	}
	if got, want := shares[gcShare], 3.0/float64(len(cases)); math.Abs(got-want) > 1e-9 {
		t.Errorf("gc share = %v, want %v", got, want)
	}
}

// burn is the function TestParseProfile looks for in its own profile.
//
//go:noinline
func burn(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink += burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, s := range samples {
		total += s.weight
		for _, f := range s.frames {
			if f == "qolsr/cmd/qolsr-bench.burn" {
				inBurn += s.weight
				break
			}
		}
	}
	if total == 0 {
		t.Skip("profiler delivered no samples")
	}
	if inBurn*2 < total {
		t.Errorf("burn holds %d of %d ns; the decoder lost the stacks", inBurn, total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestTracerWriteChrome(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "outer", Layer: "scenario", Start: 0, End: 100, Parent: -1},
		{Name: "slice", Layer: "sim", Start: 10, End: 40, Parent: 0},
		{Name: "slice", Layer: "sim", Start: 40, End: 90, Parent: 0},
	}}
	if got := tr.total("slice"); got != (80 * time.Nanosecond).Seconds() {
		t.Errorf("total(slice) = %v s, want 80 ns", got)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "w", 1); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 { // three spans, two track names
		t.Errorf("%d trace events, want 5", len(doc.TraceEvents))
	}
	var nilTracer *tracer
	nilTracer.begin("sim", "x")() // a timed rep's no-op
}

func TestFoldWorkloadGate(t *testing.T) {
	w, _ := workloadByName("traffic-ideal")
	rep := func(n int, digest string) *repResult {
		return &repResult{Rep: n, Digest: digest, Attempted: 10, Metrics: map[string]float64{"wall_s": float64(n)}}
	}
	row := foldWorkload(w, []*repResult{rep(1, "aa"), rep(2, "aa"), rep(3, "aa")}, nil)
	if len(row.Gate) != 0 || row.Attempted != 30 || row.EndToEnd["wall_s"].Median != 2 {
		t.Errorf("agreeing reps: %+v", row)
	}
	row = foldWorkload(w, []*repResult{rep(1, "aa"), rep(2, "bb")}, nil)
	if len(row.Gate) != 1 {
		t.Errorf("disagreeing digests raised %d gate failures, want 1", len(row.Gate))
	}
	traced := rep(3, "cc")
	row = foldWorkload(w, []*repResult{rep(1, "aa"), rep(2, "aa")}, traced)
	if len(row.Gate) != 1 {
		t.Errorf("traced rep with another digest raised %d gate failures, want 1", len(row.Gate))
	}
	if got := row.PerLayer["trace.overhead_ratio"].Value; got != 2 {
		t.Errorf("trace.overhead_ratio = %v, want 3 / 1.5", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest keeps BENCHMARK.json identical to the tables in metrics.go
// and inside the limits its reader enforces.
func TestManifest(t *testing.T) {
	m := buildManifest()
	var want bytes.Buffer
	if err := writeJSON(&want, m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `qolsr-bench manifest`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len([]rune(w.Why)) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len([]rune(w.Why)))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %+v", e)
		}
		if e.Name == "setup_s" {
			hasSetup = e.Unit == "s" && e.Better == lower
		}
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, l := range m.PerLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) || (l.Better != lower && l.Better != higher) {
			t.Errorf("per-layer %+v", l)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestSmoke runs every workload at about a twentieth of its size, once
// traced and once timed, in this process: each must pass its gate and
// report exactly the metric names the contract lists for that kind of rep.
func TestSmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		traced, err := runRep(repConfig{Workload: w.name, Seed: 7, Rep: 1, Traced: true, Smoke: true, TraceDir: dir})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		timed, err := runRep(repConfig{Workload: w.name, Seed: 7, Rep: 2, Smoke: true})
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		for _, r := range []*repResult{traced, timed} {
			if len(r.Gate) > 0 {
				t.Errorf("%s (traced=%v): gate failed: %v", w.name, r.Traced, r.Gate)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s (traced=%v): %d attempted, %d failed", w.name, r.Traced, r.Attempted, r.Failed)
			}
			for _, d := range metricDefs {
				v, have := r.Metrics[d.name]
				if want := d.kind != kindLayer || r.Traced; have != want {
					t.Errorf("%s (traced=%v): metric %s present=%v, want %v", w.name, r.Traced, d.name, have, want)
				}
				if d.kind == kindE2E && !(v > 0) {
					t.Errorf("%s (traced=%v): end-to-end metric %s = %v, want > 0", w.name, r.Traced, d.name, v)
				}
			}
			if len(r.Metrics) > len(metricDefs) {
				t.Errorf("%s: %d metrics reported, %d defined", w.name, len(r.Metrics), len(metricDefs))
			}
		}
		if w.sim && traced.Digest != timed.Digest {
			t.Errorf("%s: tracing changed the digest: %s vs %s", w.name, traced.Digest, timed.Digest)
		}
		data, err := os.ReadFile(filepath.Join(dir, w.name+".seed7.trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file not loadable: %v (%d events)", w.name, err, len(doc.TraceEvents))
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, want < 15s", d)
	}
}
