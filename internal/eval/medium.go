package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
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

// LossSweepOptions configures the A7 experiment.
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
	// Metric drives selection and routing (default bandwidth).
	Metric metric.Metric
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
// oracle-weighted vs. measured link quality. Cancelling ctx stops between
// simulations and returns ctx.Err().
func RunLossSweep(ctx context.Context, opts LossSweepOptions) (*LossSweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Losses) == 0 {
		opts.Losses = []float64{0, 0.1, 0.2, 0.3, 0.4}
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
	if opts.Degree <= 0 {
		opts.Degree = 10
	}
	if opts.Metric == nil {
		opts.Metric = metric.Bandwidth()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	res := &LossSweepResult{Options: opts, Modes: LossModes()}
	for li, loss := range opts.Losses {
		row := make([]*LossPoint, len(res.Modes))
		for mi, mode := range res.Modes {
			row[mi] = &LossPoint{Loss: loss, Mode: mode}
		}
		for run := 0; run < opts.Runs; run++ {
			// One field per (loss, run), shared by both modes so the
			// comparison is paired.
			fieldSeed := RunSeed(opts.Seed, opts.Degree, run)
			fieldRNG := rand.New(rand.NewSource(fieldSeed))
			dep := geom.Deployment{Field: opts.Field, Radius: 100, Degree: opts.Degree}
			g, err := netgen.Build(dep, opts.Metric.Name(), metric.DefaultInterval(), fieldRNG)
			if err != nil {
				return nil, err
			}
			if g.N() < 2 {
				continue
			}
			for mi, mode := range res.Modes {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				cfg := olsr.DefaultConfig(opts.Metric)
				if mode == "measured" {
					cfg.LinkSensing = olsr.SenseDelivery
				}
				medium := sim.NewLossyMedium(sim.LossyConfig{
					Loss: loss,
					Seed: int64(rng.Mix(uint64(fieldSeed), uint64(li))),
				})
				nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{
					Seed:   RunSeed(fieldSeed, opts.Degree, run),
					Medium: medium,
				})
				if err != nil {
					return nil, err
				}
				nw.Start()
				nw.Run(opts.SimTime)
				row[mi].ControlBPS.Add(nw.ControlBytesPerSecond())
				dlv, _ := nw.DeliverySweep(0)
				row[mi].Delivery.Add(dlv)
				if nw.Data.Sent > 0 {
					row[mi].LostFrac.Add(float64(nw.Data.Lost) / float64(nw.Data.Sent))
				}
			}
		}
		res.Points = append(res.Points, row)
	}
	return res, nil
}

// WriteTable renders the sweep as an aligned table.
func (r *LossSweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# A7 — delivery vs. medium loss on the live stack (%d runs/point, %v sim time, degree %g)\n",
		r.Options.Runs, r.Options.SimTime, r.Options.Degree); err != nil {
		return err
	}
	header := []string{"loss"}
	for _, m := range r.Modes {
		header = append(header, m+"_dlv", m+"_ctlB/s", m+"_lost")
	}
	if _, err := fmt.Fprintln(w, strings.Join(pad(header), "  ")); err != nil {
		return err
	}
	for li, row := range r.Points {
		cells := []string{fmt.Sprintf("%g", r.Options.Losses[li])}
		for _, p := range row {
			cells = append(cells,
				fmt.Sprintf("%.3f", p.Delivery.Mean()),
				fmt.Sprintf("%.0f", p.ControlBPS.Mean()),
				fmt.Sprintf("%.3f", p.LostFrac.Mean()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(pad(cells), "  ")); err != nil {
			return err
		}
	}
	return nil
}
