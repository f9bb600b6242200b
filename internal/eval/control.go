package eval

import (
	"context"
	"fmt"
	"io"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
)

// ControlSweepOptions configures the A4 experiment: the live protocol stack
// is run per selector under the bandwidth metric and the control-traffic
// cost of the advertised sets is measured on the wire, connecting Figs. 6-7
// (set sizes) to actual TC bytes.
type ControlSweepOptions struct {
	// Degrees is the density axis (default {5, 10, 15, 20}).
	Degrees []float64
	// Runs is the number of fields per density (default 3).
	Runs int
	// SimTime is the virtual time simulated per field (default 60s).
	SimTime time.Duration
	// Seed derives field and jitter randomness.
	Seed int64
	// Field is the deployment area (default 600×600 to keep the stack
	// simulation affordable).
	Field geom.Field
}

// ControlPoint is one (density, selector) measurement.
type ControlPoint struct {
	Degree   float64
	Selector string
	// TCBytesPerSec is the TC traffic rate including MPR forwards.
	TCBytesPerSec stats.Accumulator
	// HelloBytesPerSec is the HELLO rate (selector-independent up to
	// jitter; reported for scale).
	HelloBytesPerSec stats.Accumulator
	// SetSize is the mean advertised-set size observed on the wire.
	SetSize stats.Accumulator
	// Delivery is the data-plane delivery ratio of a full sweep to node 0
	// after SimTime: every node forwards one packet to the sink over its
	// own routing table. Cheap under the versioned routing core (tables
	// are cached per node), it ties the control-plane cost directly to
	// what the data plane gets for it.
	Delivery stats.Accumulator
}

// ControlSweepResult is the outcome of RunControlSweep.
type ControlSweepResult struct {
	Options ControlSweepOptions
	// Points is indexed [density][selector].
	Points [][]*ControlPoint
	// Selectors is the column order.
	Selectors []string
}

// controlSelectors are the compared advertised-set schemes.
func controlSelectors() []core.Selector {
	return []core.Selector{
		core.FNBP{},
		core.TopologyFilter{},
		core.QOLSRAdapter{Heuristic: mpr.QOLSR2},
	}
}

// RunControlSweep measures control-plane cost per selector and density on
// the live protocol stack, simulating up to workers fields at once (0 =
// GOMAXPROCS; the result is bit-identical at every setting). Cancelling ctx
// stops between simulations and returns ctx.Err().
func RunControlSweep(ctx context.Context, opts ControlSweepOptions, workers int) (*ControlSweepResult, error) {
	if len(opts.Degrees) == 0 {
		opts.Degrees = []float64{5, 10, 15, 20}
	}
	liveDefaults(&opts.Runs, &opts.SimTime, &opts.Seed, &opts.Field, 3, 60*time.Second)

	selectors := controlSelectors()
	res := &ControlSweepResult{Options: opts}
	for _, sel := range selectors {
		res.Selectors = append(res.Selectors, sel.Name())
	}
	points, err := liveSweep[*ControlPoint]{
		points: len(opts.Degrees), runs: opts.Runs, cols: len(selectors),
		workers: workers, minNodes: 2,
		point: func(pt, col int) *ControlPoint {
			return &ControlPoint{Degree: opts.Degrees[pt], Selector: res.Selectors[col]}
		},
		field: func(pt, run int) (liveField, error) {
			return deployField(opts.Seed, opts.Field, opts.Degrees[pt], run)
		},
		cell: func(f liveField, pt, run, col int) (func(*ControlPoint), error) {
			deg := opts.Degrees[pt]
			cfg := olsr.DefaultConfig(metric.Bandwidth())
			cfg.Selector = selectors[col]
			// Chain the mix once more for the protocol jitter so the
			// simulation stream is independent of the field stream.
			nw, err := sim.NewNetwork(f.g, cfg, sim.NetworkOptions{Seed: RunSeed(f.seed, deg, run)})
			if err != nil {
				return nil, err
			}
			nw.Start()
			nw.Run(opts.SimTime)
			secs := opts.SimTime.Seconds()
			tc, hello := float64(nw.Stats.TCBytes)/secs, float64(nw.Stats.HelloBytes)/secs
			sets, err := nw.ANSSets()
			if err != nil {
				return nil, err
			}
			var total int
			for _, s := range sets {
				total += len(s)
			}
			setSize := float64(total) / float64(len(sets))
			// Data-plane check after the counters are snapshotted (the
			// sweep advances virtual time, so more control traffic flows
			// during it).
			dlv, _ := nw.DeliverySweep(0)
			return func(p *ControlPoint) {
				p.TCBytesPerSec.Add(tc)
				p.HelloBytesPerSec.Add(hello)
				p.SetSize.Add(setSize)
				p.Delivery.Add(dlv)
			}, nil
		},
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// WriteTable renders the sweep as an aligned table.
func (r *ControlSweepResult) WriteTable(w io.Writer) error {
	title := fmt.Sprintf("A4 — control traffic on the live stack (%d runs/point, %v sim time)",
		r.Options.Runs, r.Options.SimTime)
	return writeGrid(w, title, "density", axisLabels(r.Options.Degrees), r.Selectors, r.Points, []column[*ControlPoint]{
		{"_tcB/s", "%.0f", func(p *ControlPoint) float64 { return p.TCBytesPerSec.Mean() }},
		{"_set", "%.2f", func(p *ControlPoint) float64 { return p.SetSize.Mean() }},
		{"_dlv", "%.2f", func(p *ControlPoint) float64 { return p.Delivery.Mean() }},
	})
}
