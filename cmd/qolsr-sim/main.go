// Command qolsr-sim regenerates the paper's evaluation figures and the
// repository's ablations from the command line, on the parallel streaming
// Runner API.
//
// Usage:
//
//	qolsr-sim -figure fig6                  # one sweep (-list shows all)
//	qolsr-sim -figure all -runs 20          # faster, noisier
//	qolsr-sim -figure fig8,ablation-mprs    # compose sweeps by name
//	qolsr-sim -figure fig6 -json -          # machine-readable results
//	qolsr-sim -ablation control             # A4 on the live protocol stack
//	qolsr-sim -ablation control -csv -      # any sweep as long-form CSV
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
	"slices"
	"strconv"
	"strings"
	"syscall"

	"qolsr"
)

// flagsHook, when set, takes each command's flag set and arguments in
// place of parsing and running them: the commands in the README and the
// usage comments are checked against the real flags without simulating.
var flagsHook func(fs *flag.FlagSet, args []string) error

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		err = runScenarioCmd(os.Args[2:])
	} else {
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qolsr-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		figureID   = fs.String("figure", "", "comma-separated sweeps to run (see -list), or \"all\" for fig6..fig9")
		ablation   = fs.String("ablation", "", "ablation short form to run instead: loopfix, locallinks, mprs, policy, upper, control, loss, load, scale, overhead")
		runs       = fs.Int("runs", 0, "independent topologies per density point (0 = the mode's default: 100 for figures, 3 a point for live grids, 1 for -ablation scale)")
		seed       = fs.Int64("seed", 1, "base RNG seed")
		workers    = fs.Int("workers", 0, "how many runs simulate at once (0 = GOMAXPROCS)")
		csvPath    = fs.String("csv", "", "also write the result as CSV to this file (\"-\" for stdout)")
		jsonPath   = fs.String("json", "", "also write the result as JSON to this file (\"-\" for stdout)")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
		degrees    = fs.String("degrees", "", "override the density axis, e.g. 10,15,20")
		list       = fs.Bool("list", false, "list sweeps, quantities, routing policies and scenarios, then exit")
		scaleMax   = fs.Int("scale-max", 0, "-ablation scale: cap the default node-count axis (0 = 1000)")
		scaleMin   = fs.Int("scale-min", 0, "-ablation scale: cut the default node-count axis from below (0 = no cut)")
		scaleOpt   = fs.Bool("scale-opt", false, "-ablation scale: enable every control-plane optimisation (delta TCs, fish-eye, min-cover relays)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if flagsHook != nil {
		return flagsHook(fs, args)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

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

	if *jsonPath == "-" && *csvPath == "-" {
		return fmt.Errorf("-json - and -csv - cannot share stdout")
	}
	// The live-stack ablations are scenario grids, outside the figure
	// harness; their tables end without the figures' blank line.
	if slices.Contains(qolsr.LiveGridNames(), *ablation) {
		res, err := r.LiveGrid(ctx, *ablation, qolsr.ScaleAxis{Min: *scaleMin, Max: *scaleMax, Optimize: *scaleOpt})
		if err != nil {
			return err
		}
		return writeResult(res, *jsonPath, *csvPath, "")
	}

	figs, err := resolveSweeps(*figureID, *ablation)
	if err != nil {
		return err
	}
	res, err := r.Run(ctx, figs...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("sweep canceled")
		}
		return err
	}
	return writeResult(res, *jsonPath, *csvPath, "\n")
}

// writeResult prints the result's tables, then trailer, and writes its CSV
// and JSON forms where -csv and -json name a path. An encoder targeting
// "-" owns stdout: the human tables are suppressed so the stream stays
// machine-parseable.
func writeResult(res *qolsr.Results, jsonPath, csvPath, trailer string) error {
	if jsonPath != "-" && csvPath != "-" {
		if err := res.WriteTables(os.Stdout); err != nil {
			return err
		}
		fmt.Print(trailer)
	}
	if csvPath != "" {
		if err := writeOut(csvPath, res.EncodeCSV); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		return writeOut(jsonPath, res.EncodeJSON)
	}
	return nil
}

// registryListing renders every composable registry: sweeps (figures and
// ablations), reportable quantities, routing policies and the built-in
// scenarios with their run verb.
func registryListing() string {
	var b strings.Builder
	for _, reg := range []struct {
		head  string
		names []string
	}{
		{"sweeps (-figure / -ablation)", qolsr.SweepIDs()},
		{"quantities", qolsr.QuantityNames()},
		{"routing policies", qolsr.RoutePolicyNames()},
		{"scenarios (scenario run -name)", qolsr.ScenarioNames()},
		{"mediums (scenario run -medium)", qolsr.MediumNames()},
	} {
		fmt.Fprintf(&b, "%s:\n  %s\n", reg.head, strings.Join(reg.names, "\n  "))
	}
	b.WriteString("flow classes (scenario run -flows class:count@rateBps):\n")
	for _, c := range qolsr.FlowClasses() {
		fmt.Fprintf(&b, "  %-10s %s\n", c.Name, c.Description)
	}
	return b.String()
}

// resolveSweeps resolves the -figure / -ablation flags: a comma-separated
// ID list, "all"/empty for the paper figures, or an ablation short form.
func resolveSweeps(figureID, ablation string) ([]qolsr.Figure, error) {
	ids := strings.Split(figureID, ",")
	switch {
	case ablation != "":
		ids = []string{ablation}
	case figureID == "all" || figureID == "":
		return qolsr.PaperFigures(), nil
	}
	figs := make([]qolsr.Figure, len(ids))
	for i, id := range ids {
		fig, err := qolsr.SweepByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		figs[i] = fig
	}
	return figs, nil
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
