package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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

// TestLiveSweepOutputForms: the five live-stack ablations dispatch through
// one path, only O1 has a JSON form, and an output form a sweep lacks is
// rejected before the sweep runs.
func TestLiveSweepOutputForms(t *testing.T) {
	r := qolsr.NewRunner()
	for _, name := range []string{"control", "loss", "load", "scale", "overhead"} {
		run, encodeJSON := liveSweep(context.Background(), r, name, qolsr.ScaleSweepOptions{})
		if run == nil {
			t.Fatalf("%s is not dispatched as a live-stack sweep", name)
		}
		if hasJSON := encodeJSON != nil; hasJSON != (name == "overhead") {
			t.Errorf("%s: has a JSON form = %v", name, hasJSON)
		}
		ran := false
		spy := func() (liveResult, error) {
			ran = true
			return nil, errors.New("ran")
		}
		forms := [][2]string{{"", "out.csv"}}
		if encodeJSON == nil {
			forms = append(forms, [2]string{"-", ""})
		}
		for _, f := range forms {
			if err := runLiveSweep(name, spy, encodeJSON, f[0], f[1]); err == nil || ran {
				t.Errorf("%s -json %q -csv %q: err = %v, ran = %v", name, f[0], f[1], err, ran)
			}
		}
	}
	if run, _ := liveSweep(context.Background(), r, "mprs", qolsr.ScaleSweepOptions{}); run != nil {
		t.Error("a figure-harness ablation dispatched as a live-stack sweep")
	}
}

func TestComposeExperiment(t *testing.T) {
	exp, err := composeExperiment("all", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Figures()) != 4 {
		t.Errorf("all figures = %d, want 4", len(exp.Figures()))
	}

	exp, err = composeExperiment("fig8, ablation-mprs", "")
	if err != nil {
		t.Fatal(err)
	}
	figs := exp.Figures()
	if len(figs) != 2 || figs[0].ID != "fig8" || figs[1].ID != "ablation-mprs" {
		t.Errorf("composed IDs wrong: %+v", figs)
	}

	// Ablation short forms resolve too.
	for _, name := range []string{"loopfix", "loopfix-size", "locallinks", "mprs", "policy", "upper"} {
		exp, err := composeExperiment("", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		figs := exp.Figures()
		if len(figs) != 1 || figs[0].ID == "" || len(figs[0].Protocols) < 2 || len(figs[0].Degrees) == 0 {
			t.Errorf("%s: incomplete figure %+v", name, figs)
		}
	}
	if _, err := composeExperiment("", "nope"); err == nil {
		t.Error("unknown ablation accepted")
	}
	if _, err := composeExperiment("fig99", ""); err == nil {
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
	for _, bad := range []string{"0", "-3", "cbr", "cbr:zero", "cbr:0", "cbr:2@-5", "warez:3"} {
		if _, err := parseFlows(bad); err == nil {
			t.Errorf("bad -flows %q accepted", bad)
		}
	}
	// Unknown class errors must list the valid names.
	_, err = parseFlows("warez:3")
	for _, class := range qolsr.FlowClassNames() {
		if !strings.Contains(err.Error(), class) {
			t.Errorf("flow-class error %q does not list %q", err, class)
		}
	}
}

func TestCheckNameListsValid(t *testing.T) {
	if err := checkName("ideal", qolsr.MediumNames(), "medium"); err != nil {
		t.Fatal(err)
	}
	err := checkName("fso", qolsr.MediumNames(), "medium")
	if err == nil {
		t.Fatal("unknown medium accepted")
	}
	for _, m := range qolsr.MediumNames() {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("medium error %q does not list %q", err, m)
		}
	}
	// The scenario run path routes -medium through the same check.
	if err := runScenario([]string{"-name", "static-baseline", "-medium", "fso"}); err == nil ||
		!strings.Contains(err.Error(), "ideal") {
		t.Errorf("-medium error does not list names: %v", err)
	}
	// Unknown -name lists the scenarios.
	err = runScenario([]string{"-name", "nope"})
	if err == nil || !strings.Contains(err.Error(), "static-baseline") {
		t.Errorf("-name error does not list scenarios: %v", err)
	}
	// Unknown -flows class lists the classes.
	if err := runScenario([]string{"-name", "static-baseline", "-flows", "warez:3"}); err == nil ||
		!strings.Contains(err.Error(), "cbr") {
		t.Errorf("-flows error does not list classes: %v", err)
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
	if err := obs.ValidateTrace(data); err != nil {
		t.Errorf("trace output fails schema validation: %v", err)
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
