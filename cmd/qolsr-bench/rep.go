package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"qolsr/internal/rng"
)

// processStart approximates when this process began, for reps run by hand;
// a rep spawned by the driver is told the spawn instant instead, so
// setup_s also covers exec and runtime start-up.
var processStart = time.Now()

// repConfig selects and sizes one rep.
type repConfig struct {
	Workload string
	Seed     int64
	Rep      int
	Traced   bool
	// Smoke shrinks every workload to about a twentieth of its size, for
	// the harness's own tests. Smoke numbers are not results.
	Smoke bool
	// Measured switches the mesh workloads to RTT-measured link weights —
	// the reproduction switch for the known delivery issue (README), never
	// used for results.
	Measured bool
	// TraceDir receives the traced rep's trace-event file.
	TraceDir string
	// SpawnedUnixNano is when the driver started this process (0: use the
	// process's own start).
	SpawnedUnixNano int64
}

// repResult is what one rep reports: a flat metric map plus what the
// correctness gate needs.
type repResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Rep        int                `json:"rep"`
	Traced     bool               `json:"traced"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Metrics    map[string]float64 `json:"metrics"`
	// Digest hashes the exact simulated counts of a sim workload: reps of
	// one workload and seed must agree on it.
	Digest string `json:"digest,omitempty"`
	// Attempted and Failed count the operations the correctness gate
	// judges: data packets offered, and those that broke a promise
	// (accounting that does not balance on sim workloads; send errors and
	// deadline misses on mesh workloads).
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// LatencySamples is the sample count behind the latency percentiles,
	// and TopPercentile the highest one that count supports.
	LatencySamples int     `json:"latency_samples,omitempty"`
	TopPercentile  float64 `json:"top_percentile,omitempty"`
	// Gate lists the correctness checks this rep failed.
	Gate []string `json:"gate,omitempty"`
}

// repCtx is the state one running rep threads through its workload.
type repCtx struct {
	cfg repConfig
	tr  *tracer // nil on timed reps
	res *repResult
	m   map[string]float64

	prof       bytes.Buffer
	timedStart time.Time
	mem0       runtime.MemStats
}

// seedFor derives the seed of one input stream (topology, flows, medium,
// …) from the rep's seed, so every input is a pure function of -seed.
func (c *repCtx) seedFor(stream string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return int64(rng.Mix(uint64(c.cfg.Seed), h) >> 1)
}

// scaled returns full for a real rep and smoke for a smoke rep.
func scaled[T any](c *repCtx, full, smoke T) T {
	if c.cfg.Smoke {
		return smoke
	}
	return full
}

func (c *repCtx) failf(format string, args ...any) {
	c.res.Gate = append(c.res.Gate, fmt.Sprintf(format, args...))
}

// beginTimed closes the set-up phase and opens the timed region: it
// records setup_s, takes the allocation baseline and, on a traced rep,
// starts the CPU profile whose fold gives the per-layer shares.
func (c *repCtx) beginTimed() error {
	runtime.ReadMemStats(&c.mem0)
	if c.tr != nil {
		if err := pprof.StartCPUProfile(&c.prof); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	c.timedStart = time.Now()
	start := processStart
	if c.cfg.SpawnedUnixNano != 0 {
		start = time.Unix(0, c.cfg.SpawnedUnixNano)
	}
	c.m["setup_s"] = c.timedStart.Sub(start).Seconds()
	return nil
}

// endTimed closes the timed region. ops is the workload's unit of work
// (events on sim workloads, delivered packets on mesh workloads) and pkts
// the data packets it moved — 0 on the workloads whose data plane is a
// side show, which do not report pkts_per_s.
func (c *repCtx) endTimed(ops, pkts uint64) error {
	wall := time.Since(c.timedStart).Seconds()
	if c.tr != nil {
		pprof.StopCPUProfile()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.m["wall_s"] = wall
	c.m["events_per_s"] = float64(ops) / wall
	if pkts > 0 {
		c.m["pkts_per_s"] = float64(pkts) / wall
	}
	if ops > 0 {
		c.m["allocs_per_op"] = float64(mem.Mallocs-c.mem0.Mallocs) / float64(ops)
	}
	if c.tr == nil {
		return nil
	}
	c.m["runtime.gc_cycles"] = float64(mem.NumGC - c.mem0.NumGC)
	c.m["runtime.alloc_mb"] = float64(mem.TotalAlloc-c.mem0.TotalAlloc) / (1 << 20)
	c.m["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs-c.mem0.PauseTotalNs) / 1e6
	samples, err := parseProfile(c.prof.Bytes())
	if err != nil {
		return err
	}
	for name, share := range foldShares(samples) {
		c.m[name] = share
	}
	return nil
}

// digest hashes exact counts into the rep's digest, in call order.
func digest(fields ...any) string {
	h := sha256.New()
	for _, f := range fields {
		fmt.Fprintf(h, "%v|", f)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runRep executes one rep of one workload in this process.
func runRep(cfg repConfig) (*repResult, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames())
	}
	c := &repCtx{
		cfg: cfg,
		m:   map[string]float64{},
		res: &repResult{
			Workload: cfg.Workload, Seed: cfg.Seed, Rep: cfg.Rep, Traced: cfg.Traced,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	c.res.Metrics = c.m
	if cfg.Traced {
		c.tr = newTracer()
	}
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	c.m["cpu_s"] = tv(ru.Utime) + tv(ru.Stime)
	c.m["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	if c.tr != nil {
		c.m["trace.spans"] = float64(len(c.tr.spans))
		if cfg.TraceDir != "" {
			if err := writeTraceFile(c, cfg.TraceDir); err != nil {
				return nil, err
			}
		}
	}
	for name := range c.m {
		if _, ok := metricByName(name); !ok {
			return nil, fmt.Errorf("%s reported %q, which metrics.go does not define", cfg.Workload, name)
		}
	}
	// A metric that does not apply to this workload reads 0, so every rep
	// of a kind (timed, traced) reports the same set of names.
	for _, d := range metricDefs {
		if _, have := c.m[d.name]; !have && (d.kind != kindLayer || cfg.Traced) {
			c.m[d.name] = 0
		}
	}
	return c.res, nil
}

func writeTraceFile(c *repCtx, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace.json", c.cfg.Workload, c.cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.tr.writeChrome(f, c.cfg.Workload, c.cfg.Rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
