package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qolsr"
	"qolsr/internal/sim"
)

// TestDocumentedCommands keeps the documented command lines working: every
// qolsr-sim command in README.md (fenced blocks and inline code) and in
// this command's usage comments parses against the real flag sets, and
// every value the command resolves before it simulates resolves — sweeps,
// live grids, scenarios, selectors, media, flow specs and densities.
// Nothing is simulated.
func TestDocumentedCommands(t *testing.T) {
	for _, src := range []struct {
		path string
		min  int // fewest commands the file holds, so a broken reader cannot pass
		read func(string) []string
	}{
		{"../../README.md", 20, readmeCommands},
		{"main.go", 6, usageCommands},
		{"scenario.go", 3, usageCommands},
	} {
		data, err := os.ReadFile(src.path)
		if err != nil {
			t.Fatal(err)
		}
		cmds := src.read(string(data))
		if len(cmds) < src.min {
			t.Errorf("%s: %d qolsr-sim commands found, want at least %d", src.path, len(cmds), src.min)
		}
		for _, cmd := range cmds {
			if err := checkCommand(cmd); err != nil {
				t.Errorf("%s: %q: %v", src.path, cmd, err)
			}
		}
	}
}

var (
	// simCommand matches a qolsr-sim invocation and captures its arguments.
	simCommand = regexp.MustCompile(`^(?:qolsr-sim|go run \./cmd/qolsr-sim)(?:\s+(.*))?$`)
	// codeSpan matches a Markdown inline code span.
	codeSpan = regexp.MustCompile("`([^`]*)`")
)

// readmeCommands returns the qolsr-sim commands of a Markdown document: the
// lines of its fenced blocks, continuations joined and trailing comments
// cut, and its inline code spans.
func readmeCommands(doc string) []string {
	var cmds []string
	fenced, pending := false, ""
	sc := bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if simCommand.MatchString(m[1]) {
					cmds = append(cmds, m[1])
				}
			}
			continue
		}
		line = pending + strings.TrimSpace(line)
		if cut, ok := strings.CutSuffix(line, `\`); ok {
			pending = cut + " "
			continue
		}
		pending = ""
		if cmd := stripComment(line); simCommand.MatchString(cmd) {
			cmds = append(cmds, cmd)
		}
	}
	return cmds
}

// usageCommands returns the qolsr-sim commands of a Go file's usage
// comments: the indented comment lines.
func usageCommands(src string) []string {
	var cmds []string
	for _, line := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(line, "//\t"); ok {
			if cmd := stripComment(rest); simCommand.MatchString(cmd) {
				cmds = append(cmds, cmd)
			}
		}
	}
	return cmds
}

// stripComment cuts a trailing "# ..." shell comment and collapses the
// spaces between arguments.
func stripComment(line string) string {
	if i := strings.Index(line, " #"); i >= 0 {
		line = line[:i]
	}
	return strings.Join(strings.Fields(line), " ")
}

// checkCommand parses one command line against the command's own flag set,
// through flagsHook, and resolves the values the command checks before it
// simulates.
func checkCommand(cmd string) error {
	args := strings.Fields(simCommand.FindStringSubmatch(cmd)[1])
	scenario := len(args) > 0 && args[0] == "scenario"
	if scenario && len(args) == 2 && args[1] == "list" {
		return nil
	}
	if scenario && (len(args) < 2 || args[1] != "run") {
		return fmt.Errorf("scenario verb is neither run nor list")
	}
	var fs *flag.FlagSet
	flagsHook = func(f *flag.FlagSet, args []string) error {
		f.Init(f.Name(), flag.ContinueOnError)
		f.SetOutput(io.Discard)
		fs = f
		return f.Parse(args)
	}
	defer func() { flagsHook = nil }()
	var err error
	if scenario {
		err = runScenarioCmd(args[1:])
	} else {
		err = run(args)
	}
	if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("stray arguments %q", fs.Args())
	}
	value := func(name string) string { return fs.Lookup(name).Value.String() }
	if scenario {
		return checkScenarioRun(value)
	}
	if _, err := parseDegrees(value("degrees")); err != nil {
		return err
	}
	if ablation := value("ablation"); !slices.Contains(qolsr.LiveGridNames(), ablation) {
		_, err = resolveSweeps(value("figure"), ablation)
	}
	return err
}

// checkScenarioRun resolves a scenario run's -name, -selector, -medium,
// -flows and -loss as runScenario does before it simulates.
func checkScenarioRun(value func(string) string) error {
	sc, err := qolsr.ScenarioByName(value("name"), value("selector"))
	if err != nil {
		return err
	}
	if m := value("medium"); m != "" {
		if !slices.Contains(qolsr.MediumNames(), m) {
			return fmt.Errorf("unknown medium %q", m)
		}
		sc.Medium.Kind = m
	}
	if spec := value("flows"); spec != "" {
		tr, err := parseFlows(spec)
		if err != nil {
			return err
		}
		for _, f := range tr.Mix {
			if !slices.Contains(qolsr.FlowClassNames(), f.Class) {
				return fmt.Errorf("unknown flow class %q", f.Class)
			}
		}
	}
	if loss, _ := strconv.ParseFloat(value("loss"), 64); loss >= 0 {
		med, err := sim.MediumByName(sc.Medium.Kind, sim.LossyConfig{})
		if _, lossy := med.(*sim.LossyMedium); err != nil || !lossy {
			return fmt.Errorf("-loss on medium %q, which takes no loss settings", sc.Medium.Kind)
		}
	}
	return nil
}

// The reader finds what the README writes: continuations joined, comments
// cut, go run lines and inline spans included, other programs left out.
func TestReadmeCommandsReader(t *testing.T) {
	doc := "Run `qolsr-sim -list` or `qolsr-node -id 1`.\n" +
		"```sh\n" +
		"qolsr-sim scenario run -name static-baseline \\\n" +
		"    -medium lossy -loss 0.2    # lossy radio\n" +
		"go run ./cmd/qolsr-sim -figure fig6\n" +
		"go test ./...\n" +
		"```\n" +
		"`qolsr-sim -figure fig7` outside a fence\n"
	want := []string{
		"qolsr-sim -list",
		"qolsr-sim scenario run -name static-baseline -medium lossy -loss 0.2",
		"go run ./cmd/qolsr-sim -figure fig6",
		"qolsr-sim -figure fig7",
	}
	if got := readmeCommands(doc); !slices.Equal(got, want) {
		t.Errorf("readmeCommands = %q, want %q", got, want)
	}
	for _, bad := range []string{
		"qolsr-sim -scalemax 50 -ablation scale",
		"qolsr-sim -figure fig10",
		"qolsr-sim -ablation overload",
		"qolsr-sim scenario run -name static-base",
		"qolsr-sim scenario run -name static-baseline -selector mpr",
		"qolsr-sim scenario run -name static-baseline -medium fso",
		"qolsr-sim scenario run -name static-baseline -flows warp:4",
		"qolsr-sim scenario run -name static-baseline -loss 0 -medium ideal",
		"qolsr-sim scenario run -name static-baseline stray",
		"qolsr-sim scenario walk",
		"qolsr-sim -degrees a,b",
	} {
		if checkCommand(bad) == nil {
			t.Errorf("%q passed", bad)
		}
	}
}
