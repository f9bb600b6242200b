package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childProcs is the GOMAXPROCS every rep runs under. It is pinned, and
// recorded in every result, because Go 1.24 sizes GOMAXPROCS from the
// host's cores and ignores a container's CPU quota.
const childProcs = 2

const resultSchema = "qolsr-bench/v1"

// machineStamp says where and when a result file was produced.
type machineStamp struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Start      string `json:"start"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
}

// layerValue is one per-layer metric of the traced rep.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadResult is one workload's row of a result file.
type workloadResult struct {
	Name string `json:"name"`
	// Link states what the packets crossed: "simulated", "in-process" or
	// "host-loopback" — never a real link.
	Link           string   `json:"link"`
	Digest         string   `json:"digest,omitempty"`
	Attempted      uint64   `json:"attempted"`
	Failed         uint64   `json:"failed"`
	LatencySamples int      `json:"latency_samples,omitempty"`
	TopPercentile  float64  `json:"top_percentile,omitempty"`
	Gate           []string `json:"gate,omitempty"`
	// EndToEnd folds the timed reps: median, min, max, n and raw values.
	EndToEnd map[string]summary `json:"end_to_end"`
	// PerLayer is the traced rep's table.
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
}

// resultFile is what `run` writes and `compare` reads.
type resultFile struct {
	Schema    string           `json:"schema"`
	Machine   machineStamp     `json:"machine"`
	Workloads []workloadResult `json:"workloads"`
}

// spawnRep runs one rep in a child process, so its peak RSS and CPU time
// are its own and one workload cannot pollute another's heap.
func spawnRep(cfg repConfig) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"rep",
		"-workload", cfg.Workload,
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-rep", strconv.Itoa(cfg.Rep),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if cfg.Traced {
		args = append(args, "-traced", "-trace-dir", cfg.TraceDir)
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	if cfg.Measured {
		args = append(args, "-measured")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rep %s #%d: %w", cfg.Workload, cfg.Rep, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("rep %s #%d: bad result: %w", cfg.Workload, cfg.Rep, err)
	}
	return &res, nil
}

// foldWorkload folds a workload's timed reps and its traced rep (nil when
// none ran) into a result row, and runs the cross-rep half of the
// correctness gate: reps of one workload and seed must agree on the digest.
func foldWorkload(w workloadDef, timed []*repResult, traced *repResult) workloadResult {
	row := workloadResult{Name: w.name, Link: w.link, EndToEnd: map[string]summary{}}
	for _, r := range timed {
		row.Attempted += r.Attempted
		row.Failed += r.Failed
		for _, g := range r.Gate {
			row.Gate = append(row.Gate, fmt.Sprintf("rep %d: %s", r.Rep, g))
		}
		if row.Digest == "" {
			row.Digest = r.Digest
		} else if r.Digest != row.Digest {
			row.Gate = append(row.Gate, fmt.Sprintf("rep %d: digest %s differs from rep %d's %s — the simulation is not deterministic",
				r.Rep, r.Digest, timed[0].Rep, row.Digest))
		}
		row.LatencySamples, row.TopPercentile = r.LatencySamples, r.TopPercentile
	}
	for _, d := range metricDefs {
		if d.kind == kindLayer {
			continue
		}
		raw := make([]float64, 0, len(timed))
		for _, r := range timed {
			raw = append(raw, r.Metrics[d.name])
		}
		row.EndToEnd[d.name] = summarise(d.unit, raw)
	}
	if traced == nil {
		return row
	}
	for _, g := range traced.Gate {
		row.Gate = append(row.Gate, fmt.Sprintf("traced rep: %s", g))
	}
	if w.sim && len(timed) > 0 && traced.Digest != row.Digest {
		row.Gate = append(row.Gate, fmt.Sprintf("traced rep: digest %s differs from the timed reps' %s — tracing changed the simulation",
			traced.Digest, row.Digest))
	}
	row.PerLayer = map[string]layerValue{}
	for _, d := range metricDefs {
		if d.kind == kindLayer {
			row.PerLayer[d.name] = layerValue{Unit: d.unit, Value: traced.Metrics[d.name]}
		}
	}
	if base := row.EndToEnd["wall_s"].Median; base > 0 {
		row.PerLayer["trace.overhead_ratio"] = layerValue{Unit: "ratio", Value: traced.Metrics["wall_s"] / base}
	}
	return row
}

// runOptions configures `run`.
type runOptions struct {
	seed      int64
	reps      int
	workloads []workloadDef
	traceDir  string
	smoke     bool
	progress  io.Writer
}

// runAll is the full measurement: reps round-robin across workloads (rep 1
// of every workload, then rep 2, …) so machine drift spreads evenly, then
// one traced rep per workload for the per-layer table.
func runAll(o runOptions) (*resultFile, error) {
	file := &resultFile{Schema: resultSchema, Machine: stampMachine(o.seed, o.reps)}
	timed := map[string][]*repResult{}
	for rep := 1; rep <= o.reps; rep++ {
		for _, w := range o.workloads {
			fmt.Fprintf(o.progress, "rep %d/%d  %s\n", rep, o.reps, w.name)
			r, err := spawnRep(repConfig{Workload: w.name, Seed: o.seed, Rep: rep, Smoke: o.smoke})
			if err != nil {
				return nil, err
			}
			timed[w.name] = append(timed[w.name], r)
		}
	}
	for _, w := range o.workloads {
		fmt.Fprintf(o.progress, "traced   %s\n", w.name)
		traced, err := spawnRep(repConfig{Workload: w.name, Seed: o.seed, Rep: o.reps + 1, Traced: true, TraceDir: o.traceDir, Smoke: o.smoke})
		if err != nil {
			return nil, err
		}
		file.Workloads = append(file.Workloads, foldWorkload(w, timed[w.name], traced))
	}
	return file, nil
}

// gateFailures lists every failed correctness check of a result file.
func gateFailures(f *resultFile) []string {
	var out []string
	for _, w := range f.Workloads {
		for _, g := range w.Gate {
			out = append(out, w.Name+": "+g)
		}
	}
	return out
}

// printResults writes every metric by name with its unit: the end-to-end
// block per workload (median [min … max] n), then the per-layer table.
func printResults(w io.Writer, f *resultFile) {
	m := f.Machine
	fmt.Fprintf(w, "# qolsr-bench %s  commit %s%s  %s  %s (%d cpus, GOMAXPROCS %d)  seed %d  reps %d\n",
		f.Schema, m.Commit, map[bool]string{true: "+dirty"}[m.Dirty], m.GoVersion, m.CPU, m.NumCPU, m.GOMAXPROCS, m.Seed, m.Reps)
	for _, row := range f.Workloads {
		fmt.Fprintf(w, "\n## %s  (%s", row.Name, row.Link)
		if row.Digest != "" {
			fmt.Fprintf(w, ", digest %s", row.Digest)
		}
		fmt.Fprintf(w, ", %d attempted, %d failed", row.Attempted, row.Failed)
		if row.LatencySamples > 0 {
			fmt.Fprintf(w, ", %d latency samples, highest supported percentile p%g", row.LatencySamples, row.TopPercentile*100)
		}
		fmt.Fprintln(w, ")")
		for _, d := range metricDefs {
			if s, ok := row.EndToEnd[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %-6s [%.6g … %.6g] n=%d\n", d.name, s.Median, s.Unit, s.Min, s.Max, s.N)
			}
		}
		if len(row.PerLayer) > 0 {
			fmt.Fprintln(w, "  -- per layer (traced rep) --")
			for _, d := range metricDefs {
				if v, ok := row.PerLayer[d.name]; ok {
					fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, v.Value, v.Unit)
				}
			}
		}
		for _, g := range row.Gate {
			fmt.Fprintf(w, "  GATE FAILED: %s\n", g)
		}
	}
}

func stampMachine(seed int64, reps int) machineStamp {
	m := machineStamp{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: childProcs, Kernel: "unknown", Start: time.Now().UTC().Format(time.RFC3339),
		Seed: seed, Reps: reps,
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	return m
}

// ---- the BENCHMARK.json contract ----------------------------------------

// contractResult is the one JSON object `bench` prints last.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minContractReps is the fewest timed reps a contract run folds: a median
// of fewer is one run's luck.
const minContractReps = 3

// runContract is one invocation under BENCHMARK.json's command line. With
// trace off it measures timed reps of one workload for about `seconds`
// (never fewer than minContractReps) and reports the median of every
// end-to-end metric; with trace on it runs one timed and one traced rep and
// reports every per-layer metric.
func runContract(w workloadDef, seed int64, seconds float64, trace bool, traceDir string, progress io.Writer) (*contractResult, error) {
	var timed []*repResult
	var traced *repResult
	if trace {
		r, err := spawnRep(repConfig{Workload: w.name, Seed: seed, Rep: 1})
		if err != nil {
			return nil, err
		}
		timed = append(timed, r)
		if traced, err = spawnRep(repConfig{Workload: w.name, Seed: seed, Rep: 2, Traced: true, TraceDir: traceDir}); err != nil {
			return nil, err
		}
	} else {
		var measured float64
		for rep := 1; ; rep++ {
			r, err := spawnRep(repConfig{Workload: w.name, Seed: seed, Rep: rep})
			if err != nil {
				return nil, err
			}
			timed = append(timed, r)
			measured += r.Metrics["setup_s"] + r.Metrics["wall_s"]
			// Stop once another rep of average length would overrun.
			if rep >= minContractReps && measured+measured/float64(rep) > seconds {
				break
			}
		}
	}
	row := foldWorkload(w, timed, traced)
	for _, g := range row.Gate {
		fmt.Fprintf(progress, "GATE FAILED: %s: %s\n", w.name, g)
	}
	out := &contractResult{
		Correct: len(row.Gate) == 0, Attempted: row.Attempted, Failed: row.Failed,
		Metrics: map[string]contractValue{},
	}
	for _, d := range metricDefs {
		switch {
		case !trace && d.kind == kindE2E:
			out.Metrics[d.name] = contractValue{Value: row.EndToEnd[d.name].Median, Unit: d.unit}
		case trace && d.kind == kindExt:
			out.Metrics[d.name] = contractValue{Value: row.EndToEnd[d.name].Median, Unit: d.unit}
		case trace && d.kind == kindLayer:
			out.Metrics[d.name] = contractValue{Value: row.PerLayer[d.name].Value, Unit: d.unit}
		}
	}
	return out, nil
}

// ---- BENCHMARK.json ------------------------------------------------------

// contractSeconds is BENCHMARK.json's run_seconds.
const contractSeconds = 8

type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// buildManifest renders the contract tables as BENCHMARK.json.
func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "cmd/qolsr-bench/bench.sh"},
		Paths:      []string{"cmd/qolsr-bench"},
		RunSeconds: contractSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	for _, d := range metricDefs {
		if d.kind == kindE2E {
			m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
		} else {
			m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.name, Unit: d.unit, Better: d.better})
		}
	}
	return m
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
