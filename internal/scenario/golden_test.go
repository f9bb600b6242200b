package scenario

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// Regenerate the golden files after an intentional encoding change with:
//
//	go test ./internal/scenario -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the scenario encoder golden files")

// goldenResult executes the ladder fixture for two replicates — the exact
// document the encoders must keep producing byte for byte.
func goldenResult(t *testing.T) *Result {
	t.Helper()
	return executeReplicates(t, ladderScenario().WithDefaults())
}

// mobileGoldenScenario is a short random-waypoint-dense run with enough
// flows that several share a source, so the sampler's per-source searches,
// its overhead sum in flow order and its stretch sum in delivery order are
// all pinned by the golden files.
func mobileGoldenScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := ByName("random-waypoint-dense", "fnbp")
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration, sc.Warmup = 30*time.Second, 10*time.Second
	sc.Traffic.Flows = 40
	return sc
}

// executeReplicates runs two replicates of sc at seed 1.
func executeReplicates(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res := &Result{Scenario: sc, Seed: 1}
	for run := 0; run < 2; run++ {
		rr, err := Execute(context.Background(), sc, 1, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Runs = append(res.Runs, rr)
	}
	return res
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file; inspect the diff and rerun with -update-golden if intended\ngot:\n%s", name, got)
	}
}

func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResult(t).EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ladder.json.golden", buf.Bytes())
}

func TestGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResult(t).EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ladder.csv.golden", buf.Bytes())
}

// The text table has no golden file; its columns must line up under their
// headers, including "±95%", which is five bytes but four runes.
func TestWriteTableAligns(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResult(t).WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	checkColumnsAlign(t, buf.String())
}

// A table cell whose accumulator holds no sample prints "-", not NaN or a
// made-up 0: a traffic-mix run measures no probe hop stretch, while its
// overhead, read off the routing tables, is measured in both modes.
func TestWriteTableMarksEmptyCells(t *testing.T) {
	sc := mixScenario().WithDefaults()
	rr, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&Result{Scenario: sc, Seed: 1, Runs: []*RunResult{rr}}).WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("table prints NaN:\n%s", out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != 7 {
			break // the traffic section
		}
		rows++
		if f[3] != "-" || f[4] == "-" {
			t.Errorf("stretch %q, overhead %q: want \"-\" and a value", f[3], f[4])
		}
	}
	if rows != len(sc.SampleTimes()) {
		t.Errorf("%d sample rows, want %d:\n%s", rows, len(sc.SampleTimes()), out)
	}
	checkColumnsAlign(t, out)
}

// One run has no confidence interval: the ±95% column reads "-", where
// 0.0000 would claim perfect confidence, and the JSON keeps ci95 0 beside
// n 1. Two runs print the interval.
func TestWriteTableMarksSingleRunCI(t *testing.T) {
	sc := ladderScenario().WithDefaults()
	var runs []*RunResult
	for run := range 2 {
		rr, err := Execute(context.Background(), sc, 1, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, rr)
	}
	for n := 1; n <= 2; n++ {
		res := &Result{Scenario: sc, Seed: 1, Runs: runs[:n]}
		var buf bytes.Buffer
		if err := res.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		if f := strings.Fields(lines[1]); len(f) != 7 || f[2] != "±95%" {
			t.Fatalf("header %q: want ±95%% third", lines[1])
		}
		for _, line := range lines[2 : 2+len(sc.SampleTimes())] {
			ci := strings.Fields(line)[2]
			if single := ci == "-"; single != (n == 1) {
				t.Errorf("%d runs: ±95%% cell %q in %q", n, ci, line)
			}
		}
		if st := statOf(&res.Aggregate()[0].Delivery); n == 1 && (st.CI95 != 0 || st.N != 1) {
			t.Errorf("one run: delivery encodes as %+v, want ci95 0 and n 1", st)
		}
	}
}

// checkColumnsAlign checks that in every table of a WriteTable output (each
// "#" line but "# reconvergence" opens one) every cell starts at the rune
// column of its header.
func checkColumnsAlign(t *testing.T, out string) {
	t.Helper()
	var header []int
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			header = nil
			if !strings.HasPrefix(line, "# reconvergence") {
				header = []int{}
			}
			continue
		}
		var starts []int
		prev := ' '
		for i, r := range []rune(line) {
			if r != ' ' && prev == ' ' {
				starts = append(starts, i)
			}
			prev = r
		}
		switch {
		case header == nil:
		case len(header) == 0:
			header = starts
		case !slices.Equal(starts, header):
			t.Errorf("cells start at runes %v, headers at %v:\n%s", starts, header, out)
			return
		}
	}
}

func TestGoldenMobileJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := executeReplicates(t, mobileGoldenScenario(t)).EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mobile.json.golden", buf.Bytes())
}

func TestGoldenMobileCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := executeReplicates(t, mobileGoldenScenario(t)).EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mobile.csv.golden", buf.Bytes())
}

// TestGoldenMobileExact pins the mobile run's sampled means to the last bit:
// the encoders round to six decimals, which can hide a sum taken in another
// order.
func TestGoldenMobileExact(t *testing.T) {
	var buf bytes.Buffer
	for _, run := range executeReplicates(t, mobileGoldenScenario(t)).Runs {
		for _, s := range run.Samples {
			fmt.Fprintf(&buf, "%d %v stretch=%x overhead=%x delivery=%x set=%x control=%x\n", run.Run, s.Time,
				math.Float64bits(s.HopStretch), math.Float64bits(s.Overhead), math.Float64bits(s.Delivery),
				math.Float64bits(s.SetSize), math.Float64bits(s.ControlBPS))
		}
	}
	checkGolden(t, "mobile.exact.golden", buf.Bytes())
}
