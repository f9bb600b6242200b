package eval

import (
	"context"
	"fmt"
	"io"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
)

// The delivery-vs-loss sweep (experiment A7): run the live protocol stack
// over the lossy radio at increasing packet-error rates and measure what
// the data plane delivers, comparing oracle link weights against measured
// link quality (Config.LinkSensing = SenseDelivery). It is the experiment
// the medium layer exists for: the quality-routing literature (ETX and
// friends) claims measured metrics earn their keep exactly when the radio
// is lossy.

// LossSweepOptions configures the A7 experiment. Selection and routing run
// under the bandwidth metric.
type LossSweepOptions struct {
	// Losses is the base packet-error-rate axis (default 0, 0.1 .. 0.4).
	Losses []float64
	// Runs is the number of independent fields per loss point (default 3).
	Runs int
	// SimTime is the virtual time simulated per field (default 60s).
	SimTime time.Duration
	// Seed derives field, jitter and medium randomness.
	Seed int64
	// Field is the deployment area (default 600×600).
	Field geom.Field
	// Degree is the deployment target mean degree (default 10).
	Degree float64
}

// LossModes are the compared link-sensing modes.
func LossModes() []string { return []string{"oracle", "measured"} }

// LossPoint is one (loss rate, mode) measurement.
type LossPoint struct {
	Loss float64
	Mode string
	// Delivery is the data-plane delivery ratio of a full sweep to node 0
	// after SimTime.
	Delivery stats.Accumulator
	// ControlBPS is the total control traffic rate.
	ControlBPS stats.Accumulator
	// LostFrac is the fraction of data packets the medium dropped in
	// flight (vs. routed into oblivion).
	LostFrac stats.Accumulator
}

// LossSweepResult is the outcome of RunLossSweep.
type LossSweepResult struct {
	Options LossSweepOptions
	// Points is indexed [loss][mode].
	Points [][]*LossPoint
	// Modes is the column order.
	Modes []string
}

// RunLossSweep measures delivery against medium loss on the live stack,
// oracle-weighted vs. measured link quality, simulating up to workers fields
// at once (0 = GOMAXPROCS; the result is bit-identical at every setting).
// Cancelling ctx stops between simulations and returns ctx.Err().
func RunLossSweep(ctx context.Context, opts LossSweepOptions, workers int) (*LossSweepResult, error) {
	if len(opts.Losses) == 0 {
		opts.Losses = []float64{0, 0.1, 0.2, 0.3, 0.4}
	}
	liveDefaults(&opts.Runs, &opts.SimTime, &opts.Seed, &opts.Field, 3, 60*time.Second)
	defaultTo(&opts.Degree, 10)

	modes := LossModes()
	points, err := liveSweep[*LossPoint]{
		points: len(opts.Losses), runs: opts.Runs, cols: len(modes),
		workers: workers, minNodes: 2,
		point: func(pt, col int) *LossPoint {
			return &LossPoint{Loss: opts.Losses[pt], Mode: modes[col]}
		},
		// One field per (loss, run), shared by both modes so the
		// comparison is paired.
		field: func(_, run int) (liveField, error) {
			return deployField(opts.Seed, opts.Field, opts.Degree, run)
		},
		cell: func(f liveField, pt, run, col int) (func(*LossPoint), error) {
			cfg := olsr.DefaultConfig(metric.Bandwidth())
			if modes[col] == "measured" {
				cfg.LinkSensing = olsr.SenseDelivery
			}
			medium := sim.NewLossyMedium(sim.LossyConfig{
				Loss: opts.Losses[pt],
				Seed: int64(rng.Mix(uint64(f.seed), uint64(pt))),
			})
			nw, err := sim.NewNetwork(f.g, cfg, sim.NetworkOptions{
				Seed:   RunSeed(f.seed, opts.Degree, run),
				Medium: medium,
			})
			if err != nil {
				return nil, err
			}
			nw.Start()
			nw.Run(opts.SimTime)
			ctl := nw.ControlBytesPerSecond()
			dlv, _ := nw.DeliverySweep(0)
			data := nw.Data
			return func(p *LossPoint) {
				p.ControlBPS.Add(ctl)
				p.Delivery.Add(dlv)
				if data.Sent > 0 {
					p.LostFrac.Add(float64(data.Lost) / float64(data.Sent))
				}
			}, nil
		},
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	return &LossSweepResult{Options: opts, Points: points, Modes: modes}, nil
}

// WriteTable renders the sweep as an aligned table.
func (r *LossSweepResult) WriteTable(w io.Writer) error {
	title := fmt.Sprintf("A7 — delivery vs. medium loss on the live stack (%d runs/point, %v sim time, degree %g)",
		r.Options.Runs, r.Options.SimTime, r.Options.Degree)
	return writeGrid(w, title, "loss", axisLabels(r.Options.Losses), r.Modes, r.Points, []column[*LossPoint]{
		{"_dlv", "%.3f", func(p *LossPoint) float64 { return p.Delivery.Mean() }},
		{"_ctlB/s", "%.0f", func(p *LossPoint) float64 { return p.ControlBPS.Mean() }},
		{"_lost", "%.3f", func(p *LossPoint) float64 { return p.LostFrac.Mean() }},
	})
}
