package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) row of a comparison.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of a workload between a baseline run a and a
// candidate run b.
//
//   - A simulated statistic (exact) on a sim workload under equal seeds
//     compares with ==: any difference is a behaviour change, reported by
//     its direction.
//   - A strict metric (the failure ratios) regresses on any rise at all.
//   - Otherwise the candidate's median may worsen by the metric's bound
//     (share of the baseline median) or its absolute floor, whichever is
//     larger. When the reps of either side spread wider than that and the
//     two ranges overlap, the reps cannot tell the sides apart and the row
//     is unresolved rather than ok.
func judge(d metricDef, simulated bool, a, b summary) string {
	// worse > 0 means b is worse than a.
	worse := b.Median - a.Median
	if d.better == higher {
		worse = -worse
	}
	if d.strict || (d.exact && simulated) {
		switch {
		case worse > 0:
			return verdictRegressed
		case worse < 0:
			return verdictImproved
		}
		return verdictOK
	}
	limit := math.Max(d.bound*math.Abs(a.Median), d.floor)
	spread := math.Max(a.Max-a.Min, b.Max-b.Min)
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case spread > limit && overlap && a.N > 1 && b.N > 1:
		return verdictUnresolved
	case worse > limit:
		return verdictRegressed
	case -worse > limit:
		return verdictImproved
	}
	return verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// compareFiles prints one row per workload and bounded metric and returns
// how many rows regressed.
func compareFiles(w io.Writer, a, b *resultFile) (regressed int) {
	sameSeed := a.Machine.Seed == b.Machine.Seed
	fmt.Fprintf(w, "# baseline %s (seed %d, %d reps)  vs  candidate %s (seed %d, %d reps)\n",
		a.Machine.Commit, a.Machine.Seed, a.Machine.Reps, b.Machine.Commit, b.Machine.Seed, b.Machine.Reps)
	if !sameSeed {
		fmt.Fprintln(w, "# seeds differ: simulated statistics are compared by their bound, not exactly")
	}
	rows := map[string]workloadResult{}
	for _, row := range b.Workloads {
		rows[row.Name] = row
	}
	for _, ra := range a.Workloads {
		rb, ok := rows[ra.Name]
		if !ok {
			fmt.Fprintf(w, "\n## %s: missing from candidate\n", ra.Name)
			regressed++
			continue
		}
		def, _ := workloadByName(ra.Name)
		fmt.Fprintf(w, "\n## %s\n", ra.Name)
		if def.sim && sameSeed && ra.Digest != rb.Digest {
			fmt.Fprintf(w, "  %-28s %s  (digest %s → %s: the simulation's exact counts changed)\n", "digest", verdictRegressed, ra.Digest, rb.Digest)
			regressed++
		}
		for _, d := range metricDefs {
			sa, okA := ra.EndToEnd[d.name]
			sb, okB := rb.EndToEnd[d.name]
			if !okA || !okB || (sa.Median == 0 && sb.Median == 0) {
				continue // not defined on this workload
			}
			v := judge(d, def.sim && sameSeed, sa, sb)
			if v == verdictRegressed {
				regressed++
			}
			change := 0.0
			if sa.Median != 0 {
				change = (sb.Median - sa.Median) / math.Abs(sa.Median) * 100
			}
			fmt.Fprintf(w, "  %-28s %-10s %14.6g → %-14.6g %-6s %+7.2f%%  [%.6g … %.6g] → [%.6g … %.6g]\n",
				d.name, v, sa.Median, sb.Median, d.unit, change, sa.Min, sa.Max, sb.Min, sb.Max)
		}
	}
	return regressed
}
