package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"qolsr"
	"qolsr/internal/obs"
)

func TestParseDegrees(t *testing.T) {
	got, err := parseDegrees("10, 15,20")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 15 || got[2] != 20 {
		t.Errorf("parseDegrees = %v", got)
	}
	if got, err := parseDegrees(""); err != nil || got != nil {
		t.Errorf("empty spec: %v %v", got, err)
	}
	if _, err := parseDegrees("a,b"); err == nil {
		t.Error("garbage accepted")
	}
}

// stdout runs f with os.Stdout captured and returns what it printed.
func stdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestLiveSweepOutputForms: the five live-stack ablations are the live
// grids, and each run here at one run a point writes the forms every sweep
// has: its table, a qolsr-sweep/v2 JSON document and long-form CSV, one row
// per (point, column, quantity). A8 (load) is left out: the CLI cannot cut
// its five loads × four columns, which take 4 s (48 s under -race);
// internal/eval's TestLiveSweepsWorkerDeterminism renders its three forms
// at a test's size.
func TestLiveSweepOutputForms(t *testing.T) {
	if got, want := qolsr.LiveGridNames(), []string{"control", "loss", "load", "overhead", "scale"}; !slices.Equal(got, want) {
		t.Fatalf("live grids = %v, want %v", got, want)
	}
	if slices.Contains(qolsr.LiveGridNames(), "mprs") {
		t.Error("a figure-harness ablation is listed as a live grid")
	}
	if err := run([]string{"-ablation", "control", "-json", "-", "-csv", "-"}); err == nil {
		t.Error("-json - and -csv - shared stdout")
	}
	for _, name := range []string{"control", "loss", "overhead", "scale"} {
		dir := t.TempDir()
		jsonPath, csvPath := filepath.Join(dir, "out.json"), filepath.Join(dir, "out.csv")
		table := stdout(t, func() error {
			return run([]string{"-ablation", name, "-runs", "20", "-degrees", "5", "-scale-max", "50", "-quiet", "-json", jsonPath, "-csv", csvPath})
		})
		if !strings.HasPrefix(table, "# ") || !strings.Contains(table, "(1 runs/point)") {
			t.Errorf("%s table:\n%s", name, table)
		}
		var doc struct {
			Schema string
			Sweeps []struct {
				ID                  string
				Columns, Quantities []string
				Points              []struct{ X float64 }
			}
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil || doc.Schema != "qolsr-sweep/v2" || len(doc.Sweeps) != 1 || doc.Sweeps[0].ID != name {
			t.Fatalf("%s JSON (%v):\n%s", name, err, data)
		}
		sw := doc.Sweeps[0]
		rows, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Count(string(rows), "\n"), 1+len(sw.Points)*len(sw.Columns)*len(sw.Quantities); got != want || !strings.HasPrefix(string(rows), "sweep,axis,x,column,quantity,") {
			t.Errorf("%s CSV has %d lines, want %d:\n%s", name, got, want, rows)
		}
	}
}

// TestLiveGridDefaultRuns: without -runs a live grid runs its own default
// of 3 runs a point, not a share of the figures' 100.
func TestLiveGridDefaultRuns(t *testing.T) {
	table := stdout(t, func() error { return run([]string{"-ablation", "control", "-degrees", "5", "-quiet"}) })
	if title, _, _ := strings.Cut(table, "\n"); !strings.HasSuffix(title, "(3 runs/point)") {
		t.Errorf("table title %q, want 3 runs a point", title)
	}
}

func TestResolveSweeps(t *testing.T) {
	figs, err := resolveSweeps("all", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Errorf("all figures = %d, want 4", len(figs))
	}

	figs, err = resolveSweeps("fig8, ablation-mprs", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "fig8" || figs[1].ID != "ablation-mprs" {
		t.Errorf("resolved IDs wrong: %+v", figs)
	}

	// Ablation short forms resolve too.
	for _, name := range []string{"loopfix", "loopfix-size", "locallinks", "mprs", "policy", "upper"} {
		figs, err := resolveSweeps("", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(figs) != 1 || figs[0].ID == "" || len(figs[0].Protocols) < 2 || len(figs[0].Degrees) == 0 {
			t.Errorf("%s: incomplete figure %+v", name, figs)
		}
	}
	if _, err := resolveSweeps("", "nope"); err == nil {
		t.Error("unknown ablation accepted")
	}
	if _, err := resolveSweeps("fig99", ""); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRegistryListing(t *testing.T) {
	out := registryListing()
	for _, section := range []string{"sweeps", "quantities:", "routing policies:", "scenarios", "mediums", "flow classes"} {
		if !strings.Contains(out, section) {
			t.Errorf("listing missing section %q", section)
		}
	}
	for _, entry := range []string{"fig6", "ablation-mprs", "set-size", "qos-optimal", "minhop-then-qos", "static-baseline", "churn-storm", "lossy-degrade", "load-ramp", "video-vs-cbr", "ideal", "lossy"} {
		if !strings.Contains(out, "  "+entry+"\n") {
			t.Errorf("listing missing entry %q", entry)
		}
	}
	for _, class := range qolsr.FlowClassNames() {
		if !strings.Contains(out, "  "+class+" ") {
			t.Errorf("listing missing flow class %q", class)
		}
	}
}

func TestParseFlows(t *testing.T) {
	tr, err := parseFlows("12")
	if err != nil || tr.Flows != 12 || tr.Mix != nil {
		t.Errorf("bare integer: %+v, %v", tr, err)
	}
	tr, err = parseFlows("cbr:8@16384, video:4@24576")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Flows != 0 || len(tr.Mix) != 2 {
		t.Fatalf("mix parse: %+v", tr)
	}
	if tr.Mix[0].Class != "cbr" || tr.Mix[0].Count != 8 || tr.Mix[0].RateBps != 16384 {
		t.Errorf("first spec: %+v", tr.Mix[0])
	}
	if tr.Mix[1].Class != "video" || tr.Mix[1].Count != 4 {
		t.Errorf("second spec: %+v", tr.Mix[1])
	}
	// Rate is optional (spec defaults apply downstream).
	if tr, err = parseFlows("poisson:3"); err != nil || tr.Mix[0].RateBps != 0 {
		t.Errorf("rateless spec: %+v, %v", tr, err)
	}
	for _, bad := range []string{"0", "-3", "cbr", "cbr:zero", "cbr:0", "cbr:2@-5"} {
		if _, err := parseFlows(bad); err == nil {
			t.Errorf("bad -flows %q accepted", bad)
		}
	}
}

// An unknown -medium fails in Scenario.Validate before any run starts,
// naming the value and listing the valid media; -loss on a scenario whose
// medium is not lossy is a flag combination the CLI rejects itself.
func TestScenarioRunUnknownMedium(t *testing.T) {
	err := runScenario([]string{"-name", "static-baseline", "-medium", "fso", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), `"fso"`) {
		t.Fatalf("-medium fso: err = %v, want it named", err)
	}
	for _, m := range qolsr.MediumNames() {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("medium error %q does not list %q", err, m)
		}
	}
	err = runScenario([]string{"-name", "static-baseline", "-loss", "0.1", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "-medium lossy") {
		t.Errorf("-loss without -medium lossy: err = %v", err)
	}
	// A zero loss is a loss setting too, which Scenario.Validate cannot see.
	err = runScenario([]string{"-name", "static-baseline", "-loss", "0", "-medium", "ideal", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "-medium lossy") {
		t.Errorf("-loss 0 -medium ideal: err = %v", err)
	}
	// Unknown -name lists the scenarios.
	err = runScenario([]string{"-name", "nope"})
	if err == nil || !strings.Contains(err.Error(), "static-baseline") {
		t.Errorf("-name error does not list scenarios: %v", err)
	}
}

// An unknown -flows class fails in Scenario.Validate before any run
// starts, naming the class and listing the valid ones.
func TestScenarioRunUnknownFlowClass(t *testing.T) {
	err := runScenario([]string{"-name", "static-baseline", "-flows", "warp:4", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), `"warp"`) {
		t.Fatalf("-flows warp:4: err = %v, want the class named", err)
	}
	for _, class := range qolsr.FlowClassNames() {
		if !strings.Contains(err.Error(), class) {
			t.Errorf("flow-class error %q does not list %q", err, class)
		}
	}
}

func TestScenarioCmdErrors(t *testing.T) {
	if err := runScenarioCmd(nil); err == nil {
		t.Error("missing verb accepted")
	}
	if err := runScenarioCmd([]string{"bogus"}); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := runScenario(nil); err == nil {
		t.Error("run without -name accepted")
	}
	if err := runScenario([]string{"-name", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := runScenario([]string{"-name", "static-baseline", "-json", "-", "-csv", "-"}); err == nil {
		t.Error("shared stdout accepted")
	}
	if err := runScenario([]string{"-name", "static-baseline", "-metrics-out", "-", "-trace", "-"}); err == nil {
		t.Error("metrics and trace sharing stdout accepted")
	}
	if err := runScenario([]string{"-name", "static-baseline", "-trace", "t.json", "-trace-every", "0"}); err == nil {
		t.Error("non-positive -trace-every accepted")
	}
}

// The observability outputs ride the scenario run end to end: -metrics-out
// writes a qolsr-metrics/v1 snapshot, -trace a schema-valid Chrome
// trace-event document.
func TestScenarioObsOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.json")
	err := runScenario([]string{"-name", "static-baseline", "-quiet",
		"-runs", "1", "-duration", "12s", "-flows", "cbr:2@8192",
		"-metrics-out", metrics, "-trace", trace, "-trace-every", "1"})
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics output does not parse: %v", err)
	}
	if doc.Schema != "qolsr-metrics/v1" {
		t.Errorf("metrics schema = %q", doc.Schema)
	}
	names := map[string]bool{}
	for _, m := range doc.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"qolsr_des_events_executed_total", "qolsr_ctrl_messages_total", "qolsr_traffic_packets_total"} {
		if !names[want] {
			t.Errorf("metrics output missing %s", want)
		}
	}

	if data, err = os.ReadFile(trace); err != nil {
		t.Fatal(err)
	}
	// The document is obs.WriteTrace's, whose tests hold that encoding to
	// the schema; what the run contributes is the events.
	var traceDoc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &traceDoc); err != nil || traceDoc.TraceEvents == nil {
		t.Fatalf("trace output does not parse as a trace-event document: %v", err)
	}
	for i, ev := range traceDoc.TraceEvents {
		if ev.Name == "" || (ev.Phase != "X" && ev.Phase != "i") || ev.Ts < 0 {
			t.Errorf("trace event %d breaks the trace-event schema: %+v", i, ev)
		}
	}
	if !strings.Contains(string(data), `"ph":"X"`) {
		t.Error("trace output has no hop spans")
	}
}

func TestClampPhases(t *testing.T) {
	sc, err := qolsr.ScenarioByName("single-link-flap", "")
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 50 * time.Second // the restore at 75s no longer fits
	clampPhases(&sc)
	if len(sc.Phases) != 1 {
		t.Fatalf("phases after clamp = %d, want 1", len(sc.Phases))
	}
	if sc.Phases[0].At != 45*time.Second {
		t.Errorf("kept phase at %v, want 45s", sc.Phases[0].At)
	}

	// Traffic-mix specs past the shortened duration are dropped too.
	lr, err := qolsr.ScenarioByName("load-ramp", "")
	if err != nil {
		t.Fatal(err)
	}
	lr.Duration = 70 * time.Second // the 90s wave no longer fits
	clampPhases(&lr)
	if len(lr.Traffic.Mix) != 2 {
		t.Fatalf("mix after clamp = %d specs, want 2", len(lr.Traffic.Mix))
	}
	if err := lr.WithDefaults().Validate(); err != nil {
		t.Errorf("clamped load-ramp invalid: %v", err)
	}
}
