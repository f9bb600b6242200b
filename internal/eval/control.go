package eval

import (
	"context"
	"fmt"
	"io"
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

// ControlSweepOptions configures the A4 experiment: the live protocol stack
// is run per selector and the control-traffic cost of the advertised sets is
// measured on the wire, connecting Figs. 6-7 (set sizes) to actual TC bytes.
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
	// Metric drives selection (default bandwidth).
	Metric metric.Metric
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
// the live protocol stack. Cancelling ctx stops between simulations and
// returns ctx.Err().
func RunControlSweep(ctx context.Context, opts ControlSweepOptions) (*ControlSweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Degrees) == 0 {
		opts.Degrees = []float64{5, 10, 15, 20}
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

	selectors := controlSelectors()
	res := &ControlSweepResult{Options: opts}
	for _, sel := range selectors {
		res.Selectors = append(res.Selectors, sel.Name())
	}
	for _, deg := range opts.Degrees {
		row := make([]*ControlPoint, len(selectors))
		for si, sel := range selectors {
			row[si] = &ControlPoint{Degree: deg, Selector: sel.Name()}
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
			for si, sel := range selectors {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				cfg := olsr.DefaultConfig(opts.Metric)
				cfg.Selector = sel
				// Chain the mix once more for the protocol jitter so the
				// simulation stream is independent of the field stream.
				nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: RunSeed(fieldSeed, deg, run)})
				if err != nil {
					return nil, err
				}
				nw.Start()
				nw.Run(opts.SimTime)
				secs := opts.SimTime.Seconds()
				row[si].TCBytesPerSec.Add(float64(nw.Stats.TCBytes) / secs)
				row[si].HelloBytesPerSec.Add(float64(nw.Stats.HelloBytes) / secs)
				sets, err := nw.ANSSets()
				if err != nil {
					return nil, err
				}
				var total int
				for _, s := range sets {
					total += len(s)
				}
				row[si].SetSize.Add(float64(total) / float64(len(sets)))
				// Data-plane check after the counters are snapshotted
				// (the sweep advances virtual time, so more control
				// traffic flows during it).
				dlv, _ := nw.DeliverySweep(0)
				row[si].Delivery.Add(dlv)
			}
		}
		res.Points = append(res.Points, row)
	}
	return res, nil
}

// WriteTable renders the sweep as an aligned table.
func (r *ControlSweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# A4 — control traffic on the live stack (%d runs/point, %v sim time)\n",
		r.Options.Runs, r.Options.SimTime); err != nil {
		return err
	}
	header := []string{"density"}
	for _, s := range r.Selectors {
		header = append(header, s+"_tcB/s", s+"_set", s+"_dlv")
	}
	if _, err := fmt.Fprintln(w, strings.Join(pad(header), "  ")); err != nil {
		return err
	}
	for di, row := range r.Points {
		cells := []string{fmt.Sprintf("%g", r.Options.Degrees[di])}
		for _, p := range row {
			cells = append(cells,
				fmt.Sprintf("%.0f", p.TCBytesPerSec.Mean()),
				fmt.Sprintf("%.2f", p.SetSize.Mean()),
				fmt.Sprintf("%.2f", p.Delivery.Mean()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(pad(cells), "  ")); err != nil {
			return err
		}
	}
	return nil
}
