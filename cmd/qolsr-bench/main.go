// Command qolsr-bench is the repository's one benchmark harness: six named
// workloads that drive the stack through its layers' public functions,
// end-to-end metrics from timed reps, per-layer metrics from one traced
// rep, and a correctness gate — see README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

const usage = `usage: qolsr-bench <command> [flags]

  run       measure every workload: -reps timed reps each, round-robin, then
            one traced rep each; print every metric by name; write -out
  compare   judge result file B against baseline A with each metric's bound
  bench     the BENCHMARK.json contract: one workload, one JSON line last
  rep       run one rep in this process (what run and bench spawn)
  manifest  print BENCHMARK.json
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args)
	case "compare":
		err = cmdCompare(args)
	case "bench":
		err = cmdBench(args)
	case "rep":
		err = cmdRep(args)
	case "manifest":
		err = writeJSON(os.Stdout, buildManifest())
	default:
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qolsr-bench:", err)
		os.Exit(1)
	}
}

func cmdRep(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ExitOnError)
	var cfg repConfig
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.Seed, "seed", 1, "derives every topology, flow and medium seed")
	fs.IntVar(&cfg.Rep, "rep", 1, "rep number, for labels only")
	fs.BoolVar(&cfg.Traced, "traced", false, "record spans, counts, a CPU profile and the probes (per-layer metrics)")
	fs.StringVar(&cfg.TraceDir, "trace-dir", "", "directory for the traced rep's trace-event file")
	fs.BoolVar(&cfg.Smoke, "smoke", false, "about a twentieth of the size; for the harness's tests, not for results")
	fs.BoolVar(&cfg.Measured, "measured", false, "mesh workloads: RTT-measured link weights (reproduces the known delivery issue, see README)")
	fs.Int64Var(&cfg.SpawnedUnixNano, "spawned", 0, "when the driver started this process, Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runRep(cfg)
	if err != nil {
		return err
	}
	return writeJSON(os.Stdout, res)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "derives every topology, flow and medium seed")
	reps := fs.Int("reps", 5, "timed reps per workload (at least 3 for a result)")
	only := fs.String("workloads", "", "comma-separated subset (default: all)")
	out := fs.String("out", "", "write the result file here (JSON)")
	traceDir := fs.String("trace-dir", "", "write each traced rep's trace-event file here (open in ui.perfetto.dev)")
	smoke := fs.Bool("smoke", false, "about a twentieth of the size; not a result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d: need at least 1", *reps)
	}
	selected := workloads
	if *only != "" {
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
			}
			selected = append(selected, w)
		}
	}
	file, err := runAll(runOptions{seed: *seed, reps: *reps, workloads: selected, traceDir: *traceDir, smoke: *smoke, progress: os.Stderr})
	if err != nil {
		return err
	}
	printResults(os.Stdout, file)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := writeJSON(f, file); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if fails := gateFailures(file); len(fails) > 0 {
		return fmt.Errorf("correctness gate failed (%d checks) — a fast wrong answer is not a result:\n  %s", len(fails), strings.Join(fails, "\n  "))
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: want two result files: baseline candidate")
	}
	a, err := readResultFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readResultFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if n := compareFiles(os.Stdout, a, b); n > 0 {
		return fmt.Errorf("%d regressed", n)
	}
	return nil
}

// cmdBench implements the command line BENCHMARK.json promises:
// --workload <name> --seed <n> --seconds <s> --trace <0|1>, one JSON
// object as the last line of stdout.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", contractSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from timed reps; 1: per-layer metrics from a traced rep")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where the traced rep writes its trace-event file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	res, err := runContract(w, *seed, *seconds, *trace != 0, *traceDir, os.Stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
