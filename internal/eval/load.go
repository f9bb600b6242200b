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
	"qolsr/internal/traffic"
)

// The satisfaction-vs-offered-load sweep (experiment A8): drive sustained
// CBR flows through the live stack over the lossy queued radio at growing
// per-flow rates and measure what fraction of admitted flows had their QoS
// honored. It compares the paper's QoS-based selection (FNBP under the
// bandwidth metric — wide links, faster serialization, shorter queues)
// against hop-count selection (the same machinery under the hop metric),
// in both link-sensing modes (oracle weights vs measured link quality).
// The QoS-violation ratio — admitted flows whose measured delay then broke
// the ceiling — is the honest score of a neighbor-selection policy under
// load: high delivery means little if it was bought by violating what
// admission promised.

// LoadSweepOptions configures the A8 experiment. Every flow carries a 60 ms
// delay ceiling over a medium losing 2% of its frames.
type LoadSweepOptions struct {
	// Loads is the per-flow offered-load axis, as multipliers of 16 kB/s
	// (default 0.5, 1, 2, 4, 8).
	Loads []float64
	// Flows is the number of concurrent CBR flows (default 16).
	Flows int
	// Runs is the number of independent fields per load point (default 3).
	Runs int
	// SimTime is the traffic duration per run, after a convergence
	// warmup (default 30s).
	SimTime time.Duration
	// Seed derives field, protocol, medium and flow randomness.
	Seed int64
	// Field is the deployment area (default 600×600).
	Field geom.Field
	// Degree is the deployment target mean degree (default 10).
	Degree float64
}

// The A8 constants: protocol convergence time before flows start, the
// per-flow offered load at multiplier 1 (16 kB/s), the flows' end-to-end
// delay ceiling, and the lossy medium's base packet-error rate.
const (
	loadWarmup      = 25 * time.Second
	loadBaseRateBps = 16384
	loadMaxDelay    = 60 * time.Millisecond
	loadLoss        = 0.02
)

// LoadSelections returns the compared selection policies in column order:
// the paper's QoS-based selection and hop-count selection.
func LoadSelections() []string { return []string{"qos", "hop"} }

// LoadPoint is one (load, selection, sensing-mode) measurement.
type LoadPoint struct {
	// Load is the per-flow rate multiplier.
	Load float64
	// Selection is "qos" or "hop"; Mode is "oracle" or "measured".
	Selection string
	Mode      string
	// Admitted and Rejected accumulate flow counts per run.
	Admitted stats.Accumulator
	// Violation is the per-run QoS-violation ratio (violated/admitted).
	Violation stats.Accumulator
	// CorrectReject is the per-run count of rejections the oracle agreed
	// with.
	CorrectReject stats.Accumulator
	// Delivery is the per-run packet delivery ratio of the mix.
	Delivery stats.Accumulator
	// DelayP95 is the per-run 95th-percentile delivered delay, seconds.
	DelayP95 stats.Accumulator
	// ThroughputBps is the per-run aggregate delivered rate.
	ThroughputBps stats.Accumulator
}

// LoadSweepResult is the outcome of RunLoadSweep.
type LoadSweepResult struct {
	Options LoadSweepOptions
	// Points is indexed [load][selection×mode], column order
	// (qos,oracle), (qos,measured), (hop,oracle), (hop,measured).
	Points [][]*LoadPoint
	// Columns names the column order as "selection/mode".
	Columns []string
}

// loadColumns enumerates (selection, mode) pairs in column order.
func loadColumns() [][2]string {
	var cols [][2]string
	for _, sel := range LoadSelections() {
		for _, mode := range LossModes() {
			cols = append(cols, [2]string{sel, mode})
		}
	}
	return cols
}

// RunLoadSweep measures QoS satisfaction against offered load on the live
// stack, simulating up to workers fields at once (0 = GOMAXPROCS; the result
// is bit-identical at every setting). Cancelling ctx stops between
// simulations and returns ctx.Err().
func RunLoadSweep(ctx context.Context, opts LoadSweepOptions, workers int) (*LoadSweepResult, error) {
	if len(opts.Loads) == 0 {
		opts.Loads = []float64{0.5, 1, 2, 4, 8}
	}
	liveDefaults(&opts.Runs, &opts.SimTime, &opts.Seed, &opts.Field, 3, 30*time.Second)
	defaultTo(&opts.Flows, 16)
	defaultTo(&opts.Degree, 10)

	cols := loadColumns()
	res := &LoadSweepResult{Options: opts}
	for _, c := range cols {
		res.Columns = append(res.Columns, c[0]+"/"+c[1])
	}
	points, err := liveSweep[*LoadPoint]{
		points: len(opts.Loads), runs: opts.Runs, cols: len(cols),
		workers: workers, minNodes: 4,
		point: func(pt, col int) *LoadPoint {
			return &LoadPoint{Load: opts.Loads[pt], Selection: cols[col][0], Mode: cols[col][1]}
		},
		// One field and one flow set per (load-axis, run), shared by every
		// column so the comparison is paired.
		field: func(_, run int) (liveField, error) {
			f, err := deployField(opts.Seed, opts.Field, opts.Degree, run)
			if err != nil {
				return f, err
			}
			// The hop metric routes on its own channel; every link costs
			// one regardless, so the weight value is immaterial — but the
			// channel must exist.
			for e := 0; e < f.g.M(); e++ {
				if err := f.g.SetWeight("hop", e, 1); err != nil {
					return f, err
				}
			}
			f.pairs = sim.DrawPairs(f.g.N(), opts.Flows, int64(rng.Mix(uint64(f.seed), 0xF10)))
			return f, nil
		},
		cell: func(f liveField, pt, _, col int) (func(*LoadPoint), error) {
			return runLoadCell(f, opts.Loads[pt], cols[col][0], cols[col][1], pt, opts)
		},
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// runLoadCell executes one (field, load, selection, mode) simulation and
// returns the step that folds its results into the point.
func runLoadCell(f liveField, load float64, selection, mode string, li int, opts LoadSweepOptions) (func(*LoadPoint), error) {
	m := metric.Bandwidth()
	if selection == "hop" {
		m = metric.Hop()
	}
	cfg := olsr.DefaultConfig(m)
	if mode == "measured" {
		cfg.LinkSensing = olsr.SenseDelivery
	}
	medium := sim.NewLossyMedium(sim.LossyConfig{
		Loss: loadLoss,
		Seed: int64(rng.Mix(uint64(f.seed), uint64(li), 0x4D)),
	})
	nw, err := sim.NewNetwork(f.g, cfg, sim.NetworkOptions{
		Seed:   RunSeed(f.seed, opts.Degree, li),
		Medium: medium,
	})
	if err != nil {
		return nil, err
	}
	nw.Start()
	nw.Run(loadWarmup)

	eng := traffic.NewEngine(nw, int64(rng.Mix(uint64(f.seed), 0xF70, uint64(li))))
	for i, pr := range f.pairs {
		if err := eng.Add(traffic.Flow{
			ID:          i,
			Class:       traffic.ClassCBR,
			Src:         pr[0],
			Dst:         pr[1],
			RateBps:     loadBaseRateBps * load,
			PacketBytes: traffic.DefaultPacketBytes,
			Start:       loadWarmup,
			Req:         traffic.Requirements{MaxDelay: loadMaxDelay},
		}); err != nil {
			return nil, err
		}
	}
	stop := loadWarmup + opts.SimTime
	if err := eng.Start(stop); err != nil {
		return nil, err
	}
	// Drain in-flight packets before the verdicts are read. This flushes
	// bounded queues; a saturated backlog cannot drain by construction,
	// so at overload the horizon counts still-queued packets as sent but
	// undelivered — part of the violation signal, not an artifact to
	// hide.
	nw.Run(stop + time.Second)

	tot := eng.Report().Total
	return func(p *LoadPoint) {
		p.Admitted.Add(float64(tot.Admitted))
		p.Violation.Add(tot.ViolationRatio())
		p.CorrectReject.Add(float64(tot.CorrectReject))
		p.Delivery.Add(tot.Delivery)
		p.DelayP95.Add(tot.DelayP95.Seconds())
		p.ThroughputBps.Add(tot.Throughput)
	}, nil
}

// WriteTable renders the sweep as an aligned table: one row per load, one
// column group per selection/mode.
func (r *LoadSweepResult) WriteTable(w io.Writer) error {
	title := fmt.Sprintf("A8 — QoS satisfaction vs offered load (%d flows, %v ceiling, loss %g, %d runs/point, %v traffic)",
		r.Options.Flows, loadMaxDelay, loadLoss, r.Options.Runs, r.Options.SimTime)
	return writeGrid(w, title, "load", axisLabels(r.Options.Loads), r.Columns, r.Points, []column[*LoadPoint]{
		{"_viol", "%.3f", func(p *LoadPoint) float64 { return p.Violation.Mean() }},
		{"_dlv", "%.3f", func(p *LoadPoint) float64 { return p.Delivery.Mean() }},
		{"_p95ms", "%.1f", func(p *LoadPoint) float64 { return p.DelayP95.Mean() * 1e3 }},
	})
}
