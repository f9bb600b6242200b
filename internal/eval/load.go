package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
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

// LoadSweepOptions configures the A8 experiment.
type LoadSweepOptions struct {
	// Loads is the per-flow offered-load axis, as multipliers of
	// BaseRateBps (default 0.5, 1, 2, 4).
	Loads []float64
	// BaseRateBps is the per-flow offered load at multiplier 1 (default
	// 16384 — 16 kB/s per flow).
	BaseRateBps float64
	// Flows is the number of concurrent CBR flows (default 16).
	Flows int
	// MaxDelay is the flows' end-to-end delay ceiling (default 60ms).
	MaxDelay time.Duration
	// Loss is the lossy medium's base packet-error rate (default 0.02).
	Loss float64
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

// loadWarmup is the protocol convergence time before flows start.
const loadWarmup = 25 * time.Second

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
// stack. Cancelling ctx stops between simulations and returns ctx.Err().
func RunLoadSweep(ctx context.Context, opts LoadSweepOptions) (*LoadSweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Loads) == 0 {
		opts.Loads = []float64{0.5, 1, 2, 4, 8}
	}
	if opts.BaseRateBps <= 0 {
		opts.BaseRateBps = 16384
	}
	if opts.Flows <= 0 {
		opts.Flows = 16
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 60 * time.Millisecond
	}
	if opts.Loss <= 0 {
		opts.Loss = 0.02
	}
	if opts.Runs <= 0 {
		opts.Runs = 3
	}
	if opts.SimTime <= 0 {
		opts.SimTime = 30 * time.Second
	}
	if opts.Field == (geom.Field{}) {
		opts.Field = geom.Field{Width: 600, Height: 600}
	}
	if opts.Degree <= 0 {
		opts.Degree = 10
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	cols := loadColumns()
	res := &LoadSweepResult{Options: opts}
	for _, c := range cols {
		res.Columns = append(res.Columns, c[0]+"/"+c[1])
	}
	for li, load := range opts.Loads {
		row := make([]*LoadPoint, len(cols))
		for ci, c := range cols {
			row[ci] = &LoadPoint{Load: load, Selection: c[0], Mode: c[1]}
		}
		for run := 0; run < opts.Runs; run++ {
			// One field and one flow set per (load-axis, run), shared by
			// every column so the comparison is paired.
			fieldSeed := RunSeed(opts.Seed, opts.Degree, run)
			fieldRNG := rand.New(rand.NewSource(fieldSeed))
			dep := geom.Deployment{Field: opts.Field, Radius: 100, Degree: opts.Degree}
			g, err := netgen.Build(dep, "bandwidth", metric.DefaultInterval(), fieldRNG)
			if err != nil {
				return nil, err
			}
			if g.N() < 4 {
				continue
			}
			// The hop metric routes on its own channel; every link costs
			// one regardless, so the weight value is immaterial — but the
			// channel must exist.
			for a := int32(0); int(a) < g.N(); a++ {
				for _, arc := range g.Arcs(a) {
					if a < arc.To {
						if err := g.SetWeight("hop", int(arc.Edge), 1); err != nil {
							return nil, err
						}
					}
				}
			}
			pairs := sim.DrawPairs(g.N(), opts.Flows, int64(rng.Mix(uint64(fieldSeed), 0xF10)))

			for ci, c := range cols {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if err := runLoadCell(row[ci], g, pairs, load, c[0], c[1], fieldSeed, li, opts); err != nil {
					return nil, err
				}
			}
		}
		res.Points = append(res.Points, row)
	}
	return res, nil
}

// runLoadCell executes one (field, load, selection, mode) simulation and
// folds its results into the point.
func runLoadCell(p *LoadPoint, g *graph.Graph, pairs [][2]int32, load float64, selection, mode string, fieldSeed int64, li int, opts LoadSweepOptions) error {
	m := metric.Bandwidth()
	if selection == "hop" {
		m = metric.Hop()
	}
	cfg := olsr.DefaultConfig(m)
	if mode == "measured" {
		cfg.LinkSensing = olsr.SenseDelivery
	}
	medium := sim.NewLossyMedium(sim.LossyConfig{
		Loss: opts.Loss,
		Seed: int64(rng.Mix(uint64(fieldSeed), uint64(li), 0x4D)),
	})
	nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{
		Seed:   RunSeed(fieldSeed, opts.Degree, li),
		Medium: medium,
	})
	if err != nil {
		return err
	}
	nw.Start()
	nw.Run(loadWarmup)

	eng := traffic.NewEngine(nw, int64(rng.Mix(uint64(fieldSeed), 0xF70, uint64(li))))
	for i, pr := range pairs {
		if err := eng.Add(traffic.Flow{
			ID:          i,
			Class:       traffic.ClassCBR,
			Src:         pr[0],
			Dst:         pr[1],
			RateBps:     opts.BaseRateBps * load,
			PacketBytes: traffic.DefaultPacketBytes,
			Start:       loadWarmup,
			Req:         traffic.Requirements{MaxDelay: opts.MaxDelay},
		}); err != nil {
			return err
		}
	}
	stop := loadWarmup + opts.SimTime
	if err := eng.Start(stop); err != nil {
		return err
	}
	// Drain in-flight packets before the verdicts are read. This flushes
	// bounded queues; a saturated backlog cannot drain by construction,
	// so at overload the horizon counts still-queued packets as sent but
	// undelivered — part of the violation signal, not an artifact to
	// hide.
	nw.Run(stop + time.Second)

	rep := eng.Report()
	p.Admitted.Add(float64(rep.Total.Admitted))
	p.Violation.Add(rep.Total.ViolationRatio())
	p.CorrectReject.Add(float64(rep.Total.CorrectReject))
	p.Delivery.Add(rep.Total.Delivery)
	p.DelayP95.Add(rep.Total.DelayP95.Seconds())
	p.ThroughputBps.Add(rep.Total.Throughput)
	return nil
}

// WriteTable renders the sweep as an aligned table: one row per load, one
// column group per selection/mode.
func (r *LoadSweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# A8 — QoS satisfaction vs offered load (%d flows, %v ceiling, loss %g, %d runs/point, %v traffic)\n",
		r.Options.Flows, r.Options.MaxDelay, r.Options.Loss, r.Options.Runs, r.Options.SimTime); err != nil {
		return err
	}
	header := []string{"load"}
	for _, c := range r.Columns {
		header = append(header, c+"_viol", c+"_dlv", c+"_p95ms")
	}
	if _, err := fmt.Fprintln(w, strings.Join(pad(header), "  ")); err != nil {
		return err
	}
	for li, row := range r.Points {
		cells := []string{fmt.Sprintf("%g", r.Options.Loads[li])}
		for _, p := range row {
			cells = append(cells,
				fmt.Sprintf("%.3f", p.Violation.Mean()),
				fmt.Sprintf("%.3f", p.Delivery.Mean()),
				fmt.Sprintf("%.1f", p.DelayP95.Mean()*1e3))
		}
		if _, err := fmt.Fprintln(w, strings.Join(pad(cells), "  ")); err != nil {
			return err
		}
	}
	return nil
}
