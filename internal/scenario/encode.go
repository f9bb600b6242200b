package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"qolsr/internal/stats"
	"qolsr/internal/traffic"
)

// SchemaVersion identifies the scenario JSON encoding; bump it on breaking
// changes to the document shape.
const SchemaVersion = "qolsr-scenario/v2"

// r6 rounds to 6 decimals so encoded documents are stable and readable.
func r6(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Round(x*1e6) / 1e6
}

func secs(d time.Duration) float64 { return r6(d.Seconds()) }

// jsonStat is one accumulated series in machine-readable form.
type jsonStat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

func statOf(a *stats.Accumulator) jsonStat {
	return jsonStat{Mean: r6(a.Mean()), CI95: r6(a.CI95()), N: a.N()}
}

type jsonPhase struct {
	AtS    float64 `json:"at_s"`
	Action string  `json:"action"`
}

type jsonScenario struct {
	Name         string      `json:"name"`
	Description  string      `json:"description,omitempty"`
	Selector     string      `json:"selector"`
	Metric       string      `json:"metric"`
	Plane        string      `json:"plane,omitempty"`
	Medium       string      `json:"medium"`
	Loss         float64     `json:"loss,omitempty"`
	DistanceLoss float64     `json:"distance_loss,omitempty"`
	LinkSensing  string      `json:"link_sensing,omitempty"`
	DurationS    float64     `json:"duration_s"`
	WarmupS      float64     `json:"warmup_s"`
	SampleS      float64     `json:"sample_every_s"`
	Flows        int         `json:"flows"`
	Mix          []jsonSpec  `json:"traffic_mix,omitempty"`
	Mobility     bool        `json:"mobility"`
	Phases       []jsonPhase `json:"phases,omitempty"`
}

// jsonSpec is one traffic-mix entry.
type jsonSpec struct {
	Class        string  `json:"class"`
	Count        int     `json:"count"`
	RateBps      float64 `json:"rate_bps"`
	PacketBytes  int     `json:"packet_bytes"`
	StartS       float64 `json:"start_s,omitempty"`
	MinBandwidth float64 `json:"min_bandwidth,omitempty"`
	MaxDelayS    float64 `json:"max_delay_s,omitempty"`
	MaxJitterS   float64 `json:"max_jitter_s,omitempty"`
}

type jsonSample struct {
	TimeS         float64 `json:"t_s"`
	Nodes         int     `json:"nodes"`
	Links         int     `json:"links"`
	Connected     int     `json:"connected"`
	Delivered     int     `json:"delivered"`
	Delivery      float64 `json:"delivery"`
	HopStretch    float64 `json:"hop_stretch"`
	Overhead      float64 `json:"overhead"`
	OverheadFlows int     `json:"overhead_flows"`
	ControlBPS    float64 `json:"control_bps"`
	TCFwdBPS      float64 `json:"tc_fwd_bps"`
	SetSize       float64 `json:"set_size"`
	// Traffic-engine window fields, omitted in probe mode.
	TrafficSent       int     `json:"traffic_sent,omitempty"`
	TrafficCompleted  int     `json:"traffic_completed,omitempty"`
	TrafficDelivered  int     `json:"traffic_delivered,omitempty"`
	TrafficThroughput float64 `json:"traffic_throughput_bps,omitempty"`
	// Rebuild-observability window fields: spf_full is the routing tables
	// computed in the window.
	SPFFull       int     `json:"spf_full"`
	SharedAdvRate float64 `json:"shared_adv_rate"`
}

type jsonReconvergence struct {
	Phase       string  `json:"phase"`
	EventS      float64 `json:"event_s"`
	Recovered   bool    `json:"recovered"`
	RecoveredS  float64 `json:"recovered_s,omitempty"`
	ReconvergeS float64 `json:"reconverge_s,omitempty"`
}

type jsonTotals struct {
	HelloMessages uint64 `json:"hello_messages"`
	HelloBytes    uint64 `json:"hello_bytes"`
	TCMessages    uint64 `json:"tc_messages"`
	TCBytes       uint64 `json:"tc_bytes"`
	// The TC byte/message split: tc_bytes = originated + forwarded.
	TCOrigBytes   uint64 `json:"tc_originated_bytes"`
	TCForwarded   uint64 `json:"tc_forwarded"`
	TCFwdBytes    uint64 `json:"tc_forwarded_bytes"`
	DataSent      uint64 `json:"data_sent"`
	DataDelivered uint64 `json:"data_delivered"`
	DataNoRoute   uint64 `json:"data_no_route"`
	DataLost      uint64 `json:"data_lost"`
	DataExpired   uint64 `json:"data_expired"`
}

// jsonRebuild is one run's routing-compute totals: advertisement interning
// hits and the routing tables computed.
type jsonRebuild struct {
	AdvRefresh   uint64  `json:"adv_refresh"`
	AdvShared    uint64  `json:"adv_shared"`
	AdvChange    uint64  `json:"adv_change"`
	SPFFull      uint64  `json:"spf_full"`
	EpochHitRate float64 `json:"epoch_hit_rate"`
}

type jsonRun struct {
	Run           int                 `json:"run"`
	Nodes         int                 `json:"nodes"`
	Rebuilds      int                 `json:"rebuilds,omitempty"`
	Samples       []jsonSample        `json:"samples"`
	Reconvergence []jsonReconvergence `json:"reconvergence,omitempty"`
	Totals        jsonTotals          `json:"totals"`
	Rebuild       jsonRebuild         `json:"rebuild"`
	Traffic       *jsonTraffic        `json:"traffic,omitempty"`
}

// jsonFlow is one flow's end-of-run record.
type jsonFlow struct {
	ID            int     `json:"id"`
	Class         string  `json:"class"`
	Src           int32   `json:"src"`
	Dst           int32   `json:"dst"`
	Verdict       string  `json:"verdict"`
	Reason        string  `json:"reason,omitempty"`
	Hops          int     `json:"hops,omitempty"`
	Sent          uint64  `json:"sent"`
	Delivered     uint64  `json:"delivered"`
	Delivery      float64 `json:"delivery"`
	ThroughputBps float64 `json:"throughput_bps"`
	DelayMeanS    float64 `json:"delay_mean_s"`
	DelayP50S     float64 `json:"delay_p50_s"`
	DelayP95S     float64 `json:"delay_p95_s"`
	DelayP99S     float64 `json:"delay_p99_s"`
	JitterS       float64 `json:"jitter_s"`
}

// jsonClass is one class's (or the mix total's) end-of-run aggregate.
type jsonClass struct {
	Class          string  `json:"class"`
	Flows          int     `json:"flows"`
	Admitted       int     `json:"admitted"`
	Satisfied      int     `json:"satisfied"`
	Violated       int     `json:"violated"`
	CorrectReject  int     `json:"correct_reject"`
	FalseReject    int     `json:"false_reject"`
	ViolationRatio float64 `json:"violation_ratio"`
	Sent           uint64  `json:"sent"`
	Delivered      uint64  `json:"delivered"`
	Delivery       float64 `json:"delivery"`
	ThroughputBps  float64 `json:"throughput_bps"`
	DelayMeanS     float64 `json:"delay_mean_s"`
	DelayP95S      float64 `json:"delay_p95_s"`
	DelayP99S      float64 `json:"delay_p99_s"`
	JitterS        float64 `json:"jitter_s"`
}

// jsonTraffic is one run's traffic-engine accounting.
type jsonTraffic struct {
	Flows   []jsonFlow  `json:"flows"`
	Classes []jsonClass `json:"classes"`
	Total   jsonClass   `json:"total"`
}

func classJSON(c traffic.ClassReport) jsonClass {
	return jsonClass{
		Class:          c.Class,
		Flows:          c.Flows,
		Admitted:       c.Admitted,
		Satisfied:      c.Satisfied,
		Violated:       c.Violated,
		CorrectReject:  c.CorrectReject,
		FalseReject:    c.FalseReject,
		ViolationRatio: r6(c.ViolationRatio()),
		Sent:           c.Sent,
		Delivered:      c.Delivered,
		Delivery:       r6(c.Delivery),
		ThroughputBps:  r6(c.Throughput),
		DelayMeanS:     secs(c.DelayMean),
		DelayP95S:      secs(c.DelayP95),
		DelayP99S:      secs(c.DelayP99),
		JitterS:        secs(c.Jitter),
	}
}

func trafficJSON(rep *traffic.Report) *jsonTraffic {
	if rep == nil {
		return nil
	}
	jt := &jsonTraffic{Total: classJSON(rep.Total)}
	for _, f := range rep.Flows {
		jt.Flows = append(jt.Flows, jsonFlow{
			ID:            f.ID,
			Class:         f.Class,
			Src:           f.Src,
			Dst:           f.Dst,
			Verdict:       string(f.Verdict),
			Reason:        f.Reason,
			Hops:          f.Decision.Hops,
			Sent:          f.Sent,
			Delivered:     f.Delivered,
			Delivery:      r6(f.Delivery),
			ThroughputBps: r6(f.Throughput),
			DelayMeanS:    secs(f.DelayMean),
			DelayP50S:     secs(f.DelayP50),
			DelayP95S:     secs(f.DelayP95),
			DelayP99S:     secs(f.DelayP99),
			JitterS:       secs(f.Jitter),
		})
	}
	for _, c := range rep.Classes {
		jt.Classes = append(jt.Classes, classJSON(c))
	}
	return jt
}

type jsonAggregate struct {
	TimeS      float64  `json:"t_s"`
	Delivery   jsonStat `json:"delivery"`
	HopStretch jsonStat `json:"hop_stretch"`
	Overhead   jsonStat `json:"overhead"`
	ControlBPS jsonStat `json:"control_bps"`
	SetSize    jsonStat `json:"set_size"`
}

type jsonDoc struct {
	Schema     string           `json:"schema"`
	Scenario   jsonScenario     `json:"scenario"`
	Seed       int64            `json:"seed"`
	Runs       int              `json:"runs"`
	RunData    []jsonRun        `json:"run_results"`
	Aggregate  []jsonAggregate  `json:"aggregate"`
	TrafficAgg []jsonTrafficAgg `json:"traffic_aggregate,omitempty"`
}

// jsonTrafficAgg is one flow class's cross-run aggregate.
type jsonTrafficAgg struct {
	Class         string   `json:"class"`
	Flows         int      `json:"flows"`
	Admitted      int      `json:"admitted"`
	Satisfied     int      `json:"satisfied"`
	Violated      int      `json:"violated"`
	CorrectReject int      `json:"correct_reject"`
	FalseReject   int      `json:"false_reject"`
	Violation     jsonStat `json:"violation_ratio"`
	Delivery      jsonStat `json:"delivery"`
	ThroughputBps jsonStat `json:"throughput_bps"`
	DelayP95S     jsonStat `json:"delay_p95_s"`
	JitterS       jsonStat `json:"jitter_s"`
}

func sampleJSON(s Sample) jsonSample {
	return jsonSample{
		TimeS:             secs(s.Time),
		Nodes:             s.Nodes,
		Links:             s.Links,
		Connected:         s.Connected,
		Delivered:         s.Delivered,
		Delivery:          r6(s.Delivery),
		HopStretch:        r6(s.HopStretch),
		Overhead:          r6(s.Overhead),
		OverheadFlows:     s.OverheadFlows,
		ControlBPS:        r6(s.ControlBPS),
		TCFwdBPS:          r6(s.TCFwdBPS),
		SetSize:           r6(s.SetSize),
		TrafficSent:       s.TrafficSent,
		TrafficCompleted:  s.TrafficCompleted,
		TrafficDelivered:  s.TrafficDelivered,
		TrafficThroughput: r6(s.TrafficThroughputBps),
		SPFFull:           s.SPFFull,
		SharedAdvRate:     r6(s.SharedAdvRate),
	}
}

// EncodeJSON writes the result as an indented JSON document (schema
// "qolsr-scenario/v2"): the executed program, per-run samples,
// reconvergence records and traffic totals, and the cross-run aggregate.
func (r *Result) EncodeJSON(w io.Writer) error {
	sc := r.Scenario.WithDefaults()
	doc := jsonDoc{
		Schema: SchemaVersion,
		Scenario: jsonScenario{
			Name:         sc.Name,
			Description:  sc.Description,
			Selector:     sc.Protocol.Selector,
			Metric:       sc.Protocol.Metric,
			Plane:        sc.Protocol.Plane,
			Medium:       sc.Medium.Kind,
			Loss:         r6(sc.Medium.Loss),
			DistanceLoss: r6(sc.Medium.DistanceLoss),
			LinkSensing:  senseNames[sc.Protocol.LinkSensing],
			DurationS:    secs(sc.Duration),
			WarmupS:      secs(sc.Warmup),
			SampleS:      secs(sc.SampleEvery),
			Flows:        sc.Traffic.Flows,
			Mobility:     sc.Mobility != nil,
		},
		Seed: r.Seed,
		Runs: len(r.Runs),
	}
	for _, sp := range sc.Traffic.Mix {
		doc.Scenario.Mix = append(doc.Scenario.Mix, jsonSpec{
			Class:        sp.Class,
			Count:        sp.Count,
			RateBps:      r6(sp.RateBps),
			PacketBytes:  sp.PacketBytes,
			StartS:       secs(sp.Start),
			MinBandwidth: r6(sp.QoS.MinBandwidth),
			MaxDelayS:    secs(sp.QoS.MaxDelay),
			MaxJitterS:   secs(sp.QoS.MaxJitter),
		})
	}
	for _, ph := range sc.Phases {
		doc.Scenario.Phases = append(doc.Scenario.Phases, jsonPhase{AtS: secs(ph.At), Action: ph.Action.Describe()})
	}
	for _, run := range r.Runs {
		if run == nil {
			continue
		}
		jr := jsonRun{
			Run:      run.Run,
			Nodes:    run.Nodes,
			Rebuilds: run.Rebuilds,
			Totals: jsonTotals{
				HelloMessages: run.Control.HelloMessages,
				HelloBytes:    run.Control.HelloBytes,
				TCMessages:    run.Control.TCMessages,
				TCBytes:       run.Control.TCBytes,
				TCOrigBytes:   run.Control.TCOriginatedBytes,
				TCForwarded:   run.Control.TCForwarded,
				TCFwdBytes:    run.Control.TCForwardedBytes,
				DataSent:      run.Data.Sent,
				DataDelivered: run.Data.Delivered,
				DataNoRoute:   run.Data.NoRoute,
				DataLost:      run.Data.Lost,
				DataExpired:   run.Data.Expired,
			},
			Rebuild: jsonRebuild{
				AdvRefresh:   run.Rebuild.AdvRefresh,
				AdvShared:    run.Rebuild.AdvShared,
				AdvChange:    run.Rebuild.AdvChange,
				SPFFull:      run.Rebuild.SPFFull,
				EpochHitRate: r6(run.Rebuild.EpochHitRate()),
			},
			Traffic: trafficJSON(run.Traffic),
		}
		for _, s := range run.Samples {
			jr.Samples = append(jr.Samples, sampleJSON(s))
		}
		for _, rc := range run.Reconvergence {
			jrc := jsonReconvergence{Phase: rc.Phase, EventS: secs(rc.EventTime), Recovered: rc.Recovered}
			if rc.Recovered {
				jrc.RecoveredS = secs(rc.RecoveredAt)
				jrc.ReconvergeS = secs(rc.Duration())
			}
			jr.Reconvergence = append(jr.Reconvergence, jrc)
		}
		doc.RunData = append(doc.RunData, jr)
	}
	for _, agg := range r.Aggregate() {
		doc.Aggregate = append(doc.Aggregate, jsonAggregate{
			TimeS:      secs(agg.Time),
			Delivery:   statOf(&agg.Delivery),
			HopStretch: statOf(&agg.HopStretch),
			Overhead:   statOf(&agg.Overhead),
			ControlBPS: statOf(&agg.ControlBPS),
			SetSize:    statOf(&agg.SetSize),
		})
	}
	for _, agg := range r.AggregateTraffic() {
		doc.TrafficAgg = append(doc.TrafficAgg, jsonTrafficAgg{
			Class:         agg.Class,
			Flows:         agg.Flows,
			Admitted:      agg.Admitted,
			Satisfied:     agg.Satisfied,
			Violated:      agg.Violated,
			CorrectReject: agg.CorrectReject,
			FalseReject:   agg.FalseReject,
			Violation:     statOf(&agg.Violation),
			Delivery:      statOf(&agg.Delivery),
			ThroughputBps: statOf(&agg.Throughput),
			DelayP95S:     statOf(&agg.DelayP95),
			JitterS:       statOf(&agg.Jitter),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// EncodeCSV writes the result in long form, one row per (run, sample time,
// quantity) — the shape plotting tools group and pivot directly. Each
// reconvergence record adds one "reconverge_s" row at its event time (value
// -1 when the run never recovered).
func (r *Result) EncodeCSV(w io.Writer) error {
	sc := r.Scenario.WithDefaults()
	if _, err := fmt.Fprintln(w, "scenario,selector,run,time_s,quantity,value"); err != nil {
		return err
	}
	// row writes one line, or nothing once a write failed; err is returned.
	// A float64 value prints rounded to six decimals, anything else as is.
	var err error
	row := func(run int, t, quantity string, value any) {
		if f, ok := value.(float64); ok {
			value = fmt.Sprintf("%.6f", r6(f))
		}
		if err == nil {
			_, err = fmt.Fprintf(w, "%s,%s,%d,%s,%s,%v\n", sc.Name, sc.Protocol.Selector, run, t, quantity, value)
		}
	}
	for _, run := range r.Runs {
		if run == nil {
			continue
		}
		for _, s := range run.Samples {
			t := fmt.Sprintf("%g", secs(s.Time))
			row(run.Run, t, "nodes", s.Nodes)
			row(run.Run, t, "links", s.Links)
			row(run.Run, t, "connected", s.Connected)
			row(run.Run, t, "delivered", s.Delivered)
			row(run.Run, t, "delivery", s.Delivery)
			row(run.Run, t, "hop_stretch", s.HopStretch)
			row(run.Run, t, "overhead", s.Overhead)
			row(run.Run, t, "overhead_flows", s.OverheadFlows)
			row(run.Run, t, "control_bps", s.ControlBPS)
			row(run.Run, t, "tc_fwd_bps", s.TCFwdBPS)
			row(run.Run, t, "set_size", s.SetSize)
			row(run.Run, t, "spf_full", s.SPFFull)
			row(run.Run, t, "shared_adv_rate", s.SharedAdvRate)
			if run.Traffic != nil {
				row(run.Run, t, "traffic_sent", s.TrafficSent)
				row(run.Run, t, "traffic_delivered", s.TrafficDelivered)
				row(run.Run, t, "traffic_throughput_bps", s.TrafficThroughputBps)
			}
		}
		if run.Traffic != nil {
			// One verdict summary row group per class at the end of the
			// run, plus the mix total.
			end := fmt.Sprintf("%g", secs(sc.Duration))
			emit := func(c jsonClass) {
				prefix := "traffic_" + c.Class + "_"
				row(run.Run, end, prefix+"admitted", c.Admitted)
				row(run.Run, end, prefix+"violated", c.Violated)
				row(run.Run, end, prefix+"correct_reject", c.CorrectReject)
				row(run.Run, end, prefix+"false_reject", c.FalseReject)
				row(run.Run, end, prefix+"violation_ratio", c.ViolationRatio)
				row(run.Run, end, prefix+"delivery", c.Delivery)
				row(run.Run, end, prefix+"throughput_bps", c.ThroughputBps)
				row(run.Run, end, prefix+"delay_p95_s", c.DelayP95S)
			}
			for _, c := range run.Traffic.Classes {
				emit(classJSON(c))
			}
			emit(classJSON(run.Traffic.Total))
		}
		for _, rc := range run.Reconvergence {
			var v any = "-1"
			if rc.Recovered {
				v = secs(rc.Duration())
			}
			row(run.Run, fmt.Sprintf("%g", secs(rc.EventTime)), "reconverge_s", v)
		}
	}
	return err
}

// WriteTable renders the cross-run aggregate as an aligned text table, plus
// a reconvergence summary per disruptive phase.
func (r *Result) WriteTable(w io.Writer) error {
	sc := r.Scenario.WithDefaults()
	var nodes stats.Accumulator
	for _, run := range r.Runs {
		if run != nil {
			nodes.Add(float64(run.Nodes))
		}
	}
	if _, err := fmt.Fprintf(w, "# scenario %s — selector %s (%d runs, %.0f nodes avg)\n",
		sc.Name, sc.Protocol.Selector, len(r.Runs), nodes.Mean()); err != nil {
		return err
	}
	rows := [][]string{{"t_s", "delivery", "±95%", "stretch", "overhead", "ctrlB/s", "set"}}
	for _, agg := range r.Aggregate() {
		rows = append(rows, []string{
			fmt.Sprintf("%g", secs(agg.Time)),
			cell(&agg.Delivery, "%.4f", agg.Delivery.Mean()),
			cell(&agg.Delivery, "%.4f", agg.Delivery.CI95()),
			cell(&agg.HopStretch, "%.3f", agg.HopStretch.Mean()),
			cell(&agg.Overhead, "%.4f", agg.Overhead.Mean()),
			cell(&agg.ControlBPS, "%.0f", agg.ControlBPS.Mean()),
			cell(&agg.SetSize, "%.2f", agg.SetSize.Mean()),
		})
	}
	if err := writeRows(w, rows); err != nil {
		return err
	}
	if err := r.writeTraffic(w); err != nil {
		return err
	}
	return r.writeReconvergence(w)
}

// writeTraffic summarises the traffic engine's cross-run class aggregates —
// admission and verdict counts, the QoS-violation ratio, and the measured
// delivery/delay/jitter. Silent in probe mode.
func (r *Result) writeTraffic(w io.Writer) error {
	aggs := r.AggregateTraffic()
	if len(aggs) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "# traffic (summed across runs; rates/delays are per-run means)"); err != nil {
		return err
	}
	rows := [][]string{{"class", "flows", "admit", "viol", "c-rej", "f-rej", "violratio", "delivery", "thru_B/s", "p95_ms", "jit_ms"}}
	for _, agg := range aggs {
		rows = append(rows, []string{
			agg.Class,
			fmt.Sprintf("%d", agg.Flows),
			fmt.Sprintf("%d", agg.Admitted),
			fmt.Sprintf("%d", agg.Violated),
			fmt.Sprintf("%d", agg.CorrectReject),
			fmt.Sprintf("%d", agg.FalseReject),
			cell(&agg.Violation, "%.3f", agg.Violation.Mean()),
			cell(&agg.Delivery, "%.3f", agg.Delivery.Mean()),
			cell(&agg.Throughput, "%.0f", agg.Throughput.Mean()),
			cell(&agg.DelayP95, "%.2f", agg.DelayP95.Mean()*1e3),
			cell(&agg.Jitter, "%.2f", agg.Jitter.Mean()*1e3),
		})
	}
	return writeRows(w, rows)
}

// writeReconvergence summarises recovery per disruptive phase across runs.
func (r *Result) writeReconvergence(w io.Writer) error {
	type key struct {
		phase  string
		eventS float64
	}
	var order []key
	total := make(map[key]int)
	recovered := make(map[key]*stats.Accumulator) // recovery times
	for _, run := range r.Runs {
		if run == nil {
			continue
		}
		for _, rc := range run.Reconvergence {
			k := key{phase: rc.Phase, eventS: secs(rc.EventTime)}
			if total[k] == 0 {
				order = append(order, k)
				recovered[k] = &stats.Accumulator{}
			}
			total[k]++
			if rc.Recovered {
				recovered[k].Add(rc.Duration().Seconds())
			}
		}
	}
	if len(order) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "# reconvergence"); err != nil {
		return err
	}
	for _, k := range order {
		mean := "n/a"
		if recovered[k].N() > 0 {
			mean = fmt.Sprintf("%.1fs", recovered[k].Mean())
		}
		if _, err := fmt.Fprintf(w, "%s @%gs: mean %s (%d/%d runs recovered)\n",
			k.phase, k.eventS, mean, recovered[k].N(), total[k]); err != nil {
			return err
		}
	}
	return nil
}

// cell formats v, a statistic of a, or "-" when a holds no sample (hop
// stretch, measured on probes only, has none in a traffic-mix run).
func cell(a *stats.Accumulator, format string, v float64) string {
	if a.N() == 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// writeRows writes an aligned table: each column but the last is padded to
// its widest cell counted in runes, at least ten, plus two spaces.
func writeRows(w io.Writer, rows [][]string) error {
	tw := tabwriter.NewWriter(w, 12, 0, 2, ' ', 0)
	for _, cells := range rows {
		if _, err := fmt.Fprintln(tw, strings.Join(cells, "\t")); err != nil {
			return err
		}
	}
	return tw.Flush()
}
