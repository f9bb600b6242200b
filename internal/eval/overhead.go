package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
	"qolsr/internal/netgen"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
)

// The overhead-vs-density sweep (experiment O1): the paper's QoS-driven
// selection trades flooding efficiency for QoS coverage, so its control
// traffic grows superlinearly with degree. This sweep runs the original
// QOLSR control plane (QOLSR MPR-2 for both advertisement and flooding)
// against each control-plane optimisation — delta-encoded TCs, fish-eye
// scoping, min-cover flood relays — and all three together, on the same
// fields and seeds, and reports control bytes split into originated and
// forwarded, TC forward counts, data delivery and hop stretch. The claim
// under test: the optimised plane's control bytes grow sublinearly where
// the baseline's grow superlinearly, at equal delivery.

// OverheadSweepOptions configures the O1 experiment.
type OverheadSweepOptions struct {
	// Degrees is the density axis (default {5, 10, 15, 20, 30} — past the
	// paper's 5-20 range, where flooding cost takes over).
	Degrees []float64
	// Runs is the number of fields per density (default 3).
	Runs int
	// SimTime is the virtual time simulated per field (default 60s).
	SimTime time.Duration
	// Seed derives field and jitter randomness.
	Seed int64
	// Field is the deployment area (default 600×600, shared with the A4
	// control sweep).
	Field geom.Field
	// Metric drives selection (default bandwidth).
	Metric metric.Metric
}

// overheadVariants names the compared control planes in column order.
func overheadVariants() []string {
	return []string{"baseline", "delta", "fisheye", "minrelay", "all"}
}

// overheadConfig builds the variant's protocol configuration. The base is
// the paper's original QOLSR — MPR-2 drives both the advertised set and the
// flooding relays — so each optimisation is measured against the control
// plane whose density scaling motivates it.
func overheadConfig(variant string, m metric.Metric) olsr.Config {
	cfg := olsr.DefaultConfig(m)
	cfg.Selector = core.QOLSRAdapter{Heuristic: mpr.QOLSR2}
	cfg.MPRHeuristic = mpr.QOLSR2
	switch variant {
	case "delta":
		cfg.DeltaTC = true
	case "fisheye":
		cfg.FisheyeTTLs = olsr.DefaultFisheyeTTLs()
	case "minrelay":
		cfg.FloodRelay = mpr.MinCover
	case "all":
		cfg.DeltaTC = true
		cfg.FisheyeTTLs = olsr.DefaultFisheyeTTLs()
		cfg.FloodRelay = mpr.MinCover
	}
	return cfg
}

// OverheadPoint is one (density, variant) measurement.
type OverheadPoint struct {
	Degree  float64
	Variant string
	// ControlBytesPerSec is the total control rate (HELLO + TC, forwards
	// included) over the simulated window.
	ControlBytesPerSec stats.Accumulator
	// TCOrigBytesPerSec and TCFwdBytesPerSec split the TC rate into
	// origin transmissions and relay re-broadcasts.
	TCOrigBytesPerSec stats.Accumulator
	TCFwdBytesPerSec  stats.Accumulator
	// TCForwards counts relay re-broadcasts over the window.
	TCForwards stats.Accumulator
	// Delivery is the post-warmup sweep delivery to node 0 and HopStretch
	// the delivered-path inflation against the hop-optimal path — the
	// equal-service check the byte savings must hold at.
	Delivery   stats.Accumulator
	HopStretch stats.Accumulator
}

// OverheadSweepResult is the outcome of RunOverheadSweep.
type OverheadSweepResult struct {
	Options OverheadSweepOptions
	// Points is indexed [density][variant], variants in
	// overheadVariants() order.
	Points [][]*OverheadPoint
	// Variants is the column order.
	Variants []string
}

// RunOverheadSweep measures control overhead against density per
// control-plane variant, on identical fields and seeds across variants.
// Cancelling ctx stops between simulations and returns ctx.Err().
func RunOverheadSweep(ctx context.Context, opts OverheadSweepOptions) (*OverheadSweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Degrees) == 0 {
		opts.Degrees = []float64{5, 10, 15, 20, 30}
	}
	if opts.Runs <= 0 {
		opts.Runs = 3
	}
	if opts.SimTime <= 0 {
		opts.SimTime = 60 * time.Second
	}
	if opts.Field == (geom.Field{}) {
		opts.Field = geom.Field{Width: 600, Height: 600}
	}
	if opts.Metric == nil {
		opts.Metric = metric.Bandwidth()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	variants := overheadVariants()
	res := &OverheadSweepResult{Options: opts, Variants: variants}
	for _, deg := range opts.Degrees {
		row := make([]*OverheadPoint, len(variants))
		for vi, v := range variants {
			row[vi] = &OverheadPoint{Degree: deg, Variant: v}
		}
		for run := 0; run < opts.Runs; run++ {
			fieldSeed := RunSeed(opts.Seed, deg, run)
			rng := rand.New(rand.NewSource(fieldSeed))
			dep := geom.Deployment{Field: opts.Field, Radius: 100, Degree: deg}
			g, err := netgen.Build(dep, opts.Metric.Name(), metric.DefaultInterval(), rng)
			if err != nil {
				return nil, err
			}
			if g.N() < 2 {
				continue
			}
			for vi, v := range variants {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// Every variant sees the same field and the same jitter
				// seed: the only degree of freedom is the control plane.
				nw, err := sim.NewNetwork(g, overheadConfig(v, opts.Metric), sim.NetworkOptions{Seed: RunSeed(fieldSeed, deg, run)})
				if err != nil {
					return nil, err
				}
				nw.Start()
				nw.Run(opts.SimTime)
				secs := opts.SimTime.Seconds()
				p := row[vi]
				p.ControlBytesPerSec.Add(float64(nw.Stats.HelloBytes+nw.Stats.TCBytes) / secs)
				p.TCOrigBytesPerSec.Add(float64(nw.Stats.TCOriginatedBytes) / secs)
				p.TCFwdBytesPerSec.Add(float64(nw.Stats.TCForwardedBytes) / secs)
				p.TCForwards.Add(float64(nw.Stats.TCForwarded))
				dlv, stretch := nw.DeliverySweep(0)
				p.Delivery.Add(dlv)
				if stretch > 0 {
					p.HopStretch.Add(stretch)
				}
			}
		}
		res.Points = append(res.Points, row)
	}
	return res, nil
}

// WriteTable renders the sweep as an aligned table.
func (r *OverheadSweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# O1 — control overhead vs density per control plane (%d runs/point, %v sim time)\n",
		r.Options.Runs, r.Options.SimTime); err != nil {
		return err
	}
	header := []string{"density"}
	for _, v := range r.Variants {
		header = append(header, v+"_ctlB/s", v+"_fwd", v+"_dlv")
	}
	if _, err := fmt.Fprintln(w, strings.Join(pad(header), "  ")); err != nil {
		return err
	}
	for di, row := range r.Points {
		cells := []string{fmt.Sprintf("%g", r.Options.Degrees[di])}
		for _, p := range row {
			cells = append(cells,
				fmt.Sprintf("%.0f", p.ControlBytesPerSec.Mean()),
				fmt.Sprintf("%.0f", p.TCForwards.Mean()),
				fmt.Sprintf("%.3f", p.Delivery.Mean()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(pad(cells), "  ")); err != nil {
			return err
		}
	}
	return nil
}

// jsonOverheadPoint is the BENCH_overhead.json row form.
type jsonOverheadPoint struct {
	Degree        float64 `json:"degree"`
	Variant       string  `json:"variant"`
	CtrlBPS       float64 `json:"ctrl_bps"`
	TCOrigBPS     float64 `json:"tc_orig_bps"`
	TCFwdBPS      float64 `json:"tc_fwd_bps"`
	TCForwards    float64 `json:"tc_forwards"`
	Delivery      float64 `json:"delivery"`
	HopStretch    float64 `json:"hop_stretch"`
	CtrlBPSStddev float64 `json:"ctrl_bps_stddev"`
}

// EncodeJSON writes the sweep in the BENCH_overhead.json format: one row
// per (density, variant) with the byte split, forwards, delivery and
// stretch.
func (r *OverheadSweepResult) EncodeJSON(w io.Writer) error {
	type doc struct {
		Experiment string              `json:"experiment"`
		Degrees    []float64           `json:"degrees"`
		Runs       int                 `json:"runs"`
		SimSeconds float64             `json:"sim_seconds"`
		Seed       int64               `json:"seed"`
		Variants   []string            `json:"variants"`
		Points     []jsonOverheadPoint `json:"points"`
	}
	d := doc{
		Experiment: "overhead-vs-density",
		Degrees:    r.Options.Degrees,
		Runs:       r.Options.Runs,
		SimSeconds: r.Options.SimTime.Seconds(),
		Seed:       r.Options.Seed,
		Variants:   r.Variants,
	}
	// Accumulators with too few samples yield NaN (single-run stddev,
	// stretch with no delivered paths); JSON has no NaN, so encode 0.
	fin := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	for _, row := range r.Points {
		for _, p := range row {
			d.Points = append(d.Points, jsonOverheadPoint{
				Degree:        p.Degree,
				Variant:       p.Variant,
				CtrlBPS:       fin(p.ControlBytesPerSec.Mean()),
				TCOrigBPS:     fin(p.TCOrigBytesPerSec.Mean()),
				TCFwdBPS:      fin(p.TCFwdBytesPerSec.Mean()),
				TCForwards:    fin(p.TCForwards.Mean()),
				Delivery:      fin(p.Delivery.Mean()),
				HopStretch:    fin(p.HopStretch.Mean()),
				CtrlBPSStddev: fin(p.ControlBytesPerSec.Std()),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
