// Command qolsr-sim regenerates the paper's evaluation figures and the
// repository's ablations from the command line, on the parallel streaming
// Experiment API.
//
// Usage:
//
//	qolsr-sim -figure fig6                  # one sweep (-list shows all)
//	qolsr-sim -figure all -runs 20          # faster, noisier
//	qolsr-sim -figure fig8,ablation-mprs    # compose sweeps by name
//	qolsr-sim -figure fig6 -json -          # machine-readable results
//	qolsr-sim -ablation control             # A4 on the live protocol stack
//
// Dynamic-network scenarios run on the live protocol stack through the
// scenario subcommand:
//
//	qolsr-sim scenario list                 # built-in scenarios
//	qolsr-sim scenario run -name single-link-flap -selector fnbp
//
// Tables go to stdout; progress goes to stderr. Ctrl-C cancels a sweep or
// scenario promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"qolsr"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		err = runScenarioCmd(os.Args[2:])
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qolsr-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figureID   = flag.String("figure", "", "comma-separated sweeps to run (see -list), or \"all\" for fig6..fig9")
		ablation   = flag.String("ablation", "", "ablation short form to run instead: loopfix, locallinks, mprs, policy, upper, control, loss, load, scale, overhead")
		runs       = flag.Int("runs", 100, "independent topologies per density point")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		workers    = flag.Int("workers", 0, "parallelism budget across points and runs (0 = GOMAXPROCS)")
		csvPath    = flag.String("csv", "", "also write the result as CSV to this file (\"-\" for stdout)")
		jsonPath   = flag.String("json", "", "also write the result as JSON to this file (\"-\" for stdout)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		degrees    = flag.String("degrees", "", "override the density axis, e.g. 10,15,20")
		list       = flag.Bool("list", false, "list sweeps, quantities, routing policies and scenarios, then exit")
		scaleMax   = flag.Int("scale-max", 0, "-ablation scale: cap the default node-count axis (0 = the sweep's default)")
		scaleMin   = flag.Int("scale-min", 0, "-ablation scale: cut the default node-count axis from below (0 = no cut)")
		scaleOpt   = flag.Bool("scale-opt", false, "-ablation scale: enable every control-plane optimisation (delta TCs, fish-eye, min-cover relays)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qolsr-sim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qolsr-sim:", err)
			}
		}()
	}

	if *list {
		fmt.Print(registryListing())
		return nil
	}

	// Ctrl-C / SIGTERM cancels the sweep; workers stop promptly and the
	// run reports context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	degreeAxis, err := parseDegrees(*degrees)
	if err != nil {
		return err
	}

	opts := []qolsr.Option{
		qolsr.WithRuns(*runs),
		qolsr.WithSeed(*seed),
		qolsr.WithWorkers(*workers),
	}
	if degreeAxis != nil {
		opts = append(opts, qolsr.WithDegrees(degreeAxis...))
	}
	if !*quiet {
		opts = append(opts, qolsr.WithProgress(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}))
	}
	r := qolsr.NewRunner(opts...)

	// The live-stack ablations bypass the figure harness.
	if run, encodeJSON := liveSweep(ctx, r, *ablation, qolsr.ScaleSweepOptions{
		MaxNodes: *scaleMax,
		MinNodes: *scaleMin,
		Optimize: *scaleOpt,
	}); run != nil {
		return runLiveSweep(*ablation, run, encodeJSON, *jsonPath, *csvPath)
	}

	if *jsonPath == "-" && *csvPath == "-" {
		return fmt.Errorf("-json - and -csv - cannot share stdout")
	}

	exp, err := composeExperiment(*figureID, *ablation)
	if err != nil {
		return err
	}
	res, err := r.Run(ctx, exp)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("sweep canceled")
		}
		return err
	}

	// An encoder targeting "-" owns stdout: suppress the human tables so
	// the stream stays machine-parseable.
	if *jsonPath != "-" && *csvPath != "-" {
		if err := res.WriteTables(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		for _, fr := range res.Figures {
			if fr.Figure.ID == "ablation-loopfix" {
				if err := fr.WriteDeliveryTable(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
		}
	}
	if *csvPath != "" {
		if err := writeOut(*csvPath, res.EncodeCSV); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeOut(*jsonPath, res.EncodeJSON); err != nil {
			return err
		}
	}
	return nil
}

// liveResult is what a live-stack sweep yields: a table.
type liveResult interface {
	WriteTable(w io.Writer) error
}

// liveSweep returns the run of a live-stack ablation (A4, A7, A8, S1, O1),
// which bypasses the figure harness, and the JSON encoder of its result,
// valid once run has returned. encodeJSON is nil for a sweep with table
// output only, and run is nil when name is not a live-stack ablation.
func liveSweep(ctx context.Context, r *qolsr.Runner, name string, scale qolsr.ScaleSweepOptions) (run func() (liveResult, error), encodeJSON func(io.Writer) error) {
	switch name {
	case "control":
		return func() (liveResult, error) { return r.ControlSweep(ctx, qolsr.ControlSweepOptions{}) }, nil
	case "loss":
		return func() (liveResult, error) { return r.LossSweep(ctx, qolsr.LossSweepOptions{}) }, nil
	case "load":
		return func() (liveResult, error) { return r.LoadSweep(ctx, qolsr.LoadSweepOptions{}) }, nil
	case "scale":
		return func() (liveResult, error) { return r.ScaleSweep(ctx, scale) }, nil
	case "overhead":
		// O1's JSON form is the BENCH_overhead.json artifact.
		var res *qolsr.OverheadSweepResult
		return func() (liveResult, error) {
				var err error
				res, err = r.OverheadSweep(ctx, qolsr.OverheadSweepOptions{})
				return res, err
			}, func(w io.Writer) error {
				return res.EncodeJSON(w)
			}
	}
	return nil, nil
}

// runLiveSweep runs a live-stack ablation and prints its table, plus its
// JSON form where it has one. An encoder targeting "-" owns stdout.
func runLiveSweep(name string, run func() (liveResult, error), encodeJSON func(io.Writer) error, jsonPath, csvPath string) error {
	switch {
	case encodeJSON != nil && csvPath != "":
		return fmt.Errorf("-ablation %s has table and JSON output only; -csv is not supported", name)
	case encodeJSON == nil && (jsonPath != "" || csvPath != ""):
		return fmt.Errorf("-ablation %s has table output only; -json/-csv are not supported", name)
	}
	res, err := run()
	if err != nil {
		return err
	}
	if jsonPath != "-" {
		if err := res.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	if jsonPath == "" {
		return nil
	}
	return writeOut(jsonPath, encodeJSON)
}

// registryListing renders every composable registry: sweeps (figures and
// ablations), reportable quantities, routing policies and the built-in
// scenarios with their run verb.
func registryListing() string {
	var b strings.Builder
	b.WriteString("sweeps (-figure / -ablation):\n")
	for _, id := range qolsr.SweepIDs() {
		fmt.Fprintf(&b, "  %s\n", id)
	}
	b.WriteString("quantities:\n")
	for _, q := range qolsr.QuantityNames() {
		fmt.Fprintf(&b, "  %s\n", q)
	}
	b.WriteString("routing policies:\n")
	for _, p := range qolsr.RoutePolicyNames() {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	b.WriteString("scenarios (scenario run -name):\n")
	for _, s := range qolsr.ScenarioNames() {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	b.WriteString("mediums (scenario run -medium):\n")
	for _, m := range qolsr.MediumNames() {
		fmt.Fprintf(&b, "  %s\n", m)
	}
	b.WriteString("flow classes (scenario run -flows class:count@rateBps):\n")
	for _, c := range qolsr.FlowClasses() {
		fmt.Fprintf(&b, "  %-10s %s\n", c.Name, c.Description)
	}
	return b.String()
}

// composeExperiment builds the experiment from the -figure / -ablation
// flags: a comma-separated ID list, "all"/empty for the paper figures, or
// an ablation short form.
func composeExperiment(figureID, ablation string) (*qolsr.Experiment, error) {
	switch {
	case ablation != "":
		return qolsr.ExperimentByID(ablation)
	case figureID == "all" || figureID == "":
		return qolsr.PaperExperiment(), nil
	default:
		var ids []string
		for _, id := range strings.Split(figureID, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		return qolsr.ExperimentByID(ids...)
	}
}

// writeOut encodes to path, with "-" meaning stdout.
func writeOut(path string, encode func(w io.Writer) error) error {
	if path == "-" {
		return encode(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := encode(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// parseDegrees parses a comma-separated density axis; empty means "use the
// figure's default".
func parseDegrees(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad density %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
