package main

// The scenario subcommand: run and list the dynamic-network scenarios of
// the Scenario API.
//
//	qolsr-sim scenario list                        # built-ins + selectors
//	qolsr-sim scenario run -name single-link-flap  # defaults: fnbp, 3 runs
//	qolsr-sim scenario run -name churn-storm -selector qolsr -runs 5 -json -

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"qolsr"
	"qolsr/internal/sim"
)

// runScenarioCmd dispatches "qolsr-sim scenario <verb>".
func runScenarioCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("scenario needs a verb: run or list")
	}
	switch args[0] {
	case "list":
		return listScenarios(os.Stdout)
	case "run":
		return runScenario(args[1:])
	default:
		return fmt.Errorf("unknown scenario verb %q (have run, list)", args[0])
	}
}

// listScenarios prints the built-in registry with descriptions.
func listScenarios(w *os.File) error {
	for _, def := range qolsr.BuiltInScenarios() {
		if _, err := fmt.Fprintf(w, "%-24s %s\n", def.Scenario.Name, def.Description); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "\nselectors: fnbp (default), topofilter, qolsr, full")
	return err
}

// runScenario executes one built-in scenario with CLI overrides.
func runScenario(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	var (
		name       = fs.String("name", "", "built-in scenario to run (see: qolsr-sim scenario list)")
		selector   = fs.String("selector", "fnbp", "advertised-set selector: fnbp, topofilter, qolsr, full")
		runs       = fs.Int("runs", 0, "replicate runs (0 = default 3)")
		seed       = fs.Int64("seed", 1, "base RNG seed")
		workers    = fs.Int("workers", 0, "how many replicate runs simulate at once (0 = GOMAXPROCS)")
		csvPath    = fs.String("csv", "", "also write the result as long-form CSV to this file (\"-\" for stdout)")
		jsonPath   = fs.String("json", "", "also write the result as JSON to this file (\"-\" for stdout)")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
		duration   = fs.Duration("duration", 0, "override the scenario duration")
		sample     = fs.Duration("sample", 0, "override the measurement cadence")
		flows      = fs.String("flows", "", "override the traffic: a bare integer overrides the probe flow count; \"class:count@rateBps,...\" (e.g. cbr:8@16384,video:4@24576) installs a sustained flow-class mix (classes: see -list)")
		medium     = fs.String("medium", "", "override the radio medium: ideal or lossy (see -list)")
		loss       = fs.Float64("loss", -1, "override the lossy medium's base packet-error rate, in [0,1)")
		measured   = fs.Bool("measured", false, "enable measured link quality (ETX-style) instead of oracle weights")
		metricsOut = fs.String("metrics-out", "", "collect the metrics registry and write its merged snapshot as JSON to this file (\"-\" for stdout)")
		tracePath  = fs.String("trace", "", "sample data-packet path traces and write them as Chrome trace-event JSON to this file (\"-\" for stdout; open in Perfetto)")
		traceEvery = fs.Int("trace-every", 64, "with -trace, sample 1 in N data packets (1 = trace everything)")
	)
	if flagsHook != nil {
		return flagsHook(fs, args)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("scenario run needs -name (see: qolsr-sim scenario list)")
	}
	stdoutSinks := 0
	for _, p := range []string{*jsonPath, *csvPath, *metricsOut, *tracePath} {
		if p == "-" {
			stdoutSinks++
		}
	}
	if stdoutSinks > 1 {
		return fmt.Errorf("-json, -csv, -metrics-out and -trace cannot share stdout")
	}
	if *tracePath != "" && *traceEvery < 1 {
		return fmt.Errorf("-trace-every needs a positive sampling period, got %d", *traceEvery)
	}

	sc, err := qolsr.ScenarioByName(*name, *selector)
	if err != nil {
		return err
	}
	if *duration > 0 {
		sc.Duration = *duration
		if sc.Warmup > *duration {
			sc.Warmup = *duration / 3
		}
		clampPhases(&sc)
	}
	if *sample > 0 {
		sc.SampleEvery = *sample
	}
	if *flows != "" {
		tr, err := parseFlows(*flows)
		if err != nil {
			return err
		}
		sc.Traffic = tr
	}
	if *medium != "" {
		sc.Medium.Kind = *medium
	}
	if *loss >= 0 {
		sc.Medium.Loss = *loss
		// An unknown kind is left for Scenario.Validate to name.
		med, err := sim.MediumByName(sc.Medium.Kind, sim.LossyConfig{})
		if _, lossy := med.(*sim.LossyMedium); err == nil && !lossy {
			return fmt.Errorf("-loss requires the lossy medium (add -medium lossy)")
		}
	}
	if *measured {
		sc.Protocol.LinkSensing = qolsr.SenseDelivery
	}
	if *metricsOut != "" {
		sc.Obs.Metrics = true
	}
	if *tracePath != "" {
		sc.Obs.TraceEvery = *traceEvery
	}

	// Ctrl-C / SIGTERM cancels the execution; replicate runs stop at the
	// next sample and the command reports the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []qolsr.Option{
		qolsr.WithRuns(*runs),
		qolsr.WithSeed(*seed),
		qolsr.WithWorkers(*workers),
	}
	if !*quiet {
		opts = append(opts, qolsr.WithProgress(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}))
	}
	res, err := qolsr.NewRunner(opts...).RunScenario(ctx, sc)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("scenario canceled")
		}
		return err
	}

	// An encoder targeting "-" owns stdout: suppress the human table so
	// the stream stays machine-parseable.
	if stdoutSinks == 0 {
		if err := res.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	for _, out := range []struct {
		path   string
		encode func(io.Writer) error
	}{{*csvPath, res.EncodeCSV}, {*jsonPath, res.EncodeJSON}, {*metricsOut, res.EncodeMetrics}, {*tracePath, res.EncodeTrace}} {
		if out.path != "" {
			if err := writeOut(out.path, out.encode); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseFlows interprets the -flows override: a bare integer keeps the
// legacy probe workload at that count; a comma-separated list of
// "class:count@rateBps" entries installs a sustained flow-class mix, whose
// class names Scenario.Validate checks.
func parseFlows(spec string) (qolsr.ScenarioTraffic, error) {
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			return qolsr.ScenarioTraffic{}, fmt.Errorf("-flows needs a positive probe count, got %d", n)
		}
		return qolsr.ScenarioTraffic{Flows: n}, nil
	}
	var mix []qolsr.FlowSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		class, rest, ok := strings.Cut(part, ":")
		if !ok {
			return qolsr.ScenarioTraffic{}, fmt.Errorf("bad -flows entry %q, want class:count@rateBps", part)
		}
		countStr, rateStr, hasRate := strings.Cut(rest, "@")
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return qolsr.ScenarioTraffic{}, fmt.Errorf("bad flow count in -flows entry %q", part)
		}
		fspec := qolsr.FlowSpec{Class: class, Count: count}
		if hasRate {
			rate, err := strconv.ParseFloat(rateStr, 64)
			if err != nil || rate <= 0 {
				return qolsr.ScenarioTraffic{}, fmt.Errorf("bad rate in -flows entry %q", part)
			}
			fspec.RateBps = rate
		}
		mix = append(mix, fspec)
	}
	if len(mix) == 0 {
		return qolsr.ScenarioTraffic{}, fmt.Errorf("-flows spec %q names no flows", spec)
	}
	return qolsr.ScenarioTraffic{Mix: mix}, nil
}

// clampPhases drops timeline phases and traffic-mix specs a shortened
// duration pushed past the end, so -duration overrides keep built-ins
// valid.
func clampPhases(sc *qolsr.Scenario) {
	kept := sc.Phases[:0:0]
	for _, ph := range sc.Phases {
		if ph.At <= sc.Duration {
			kept = append(kept, ph)
		}
	}
	sc.Phases = kept
	mix := sc.Traffic.Mix[:0:0]
	for _, sp := range sc.Traffic.Mix {
		if sp.Start <= sc.Duration {
			mix = append(mix, sp)
		}
	}
	sc.Traffic.Mix = mix
}
