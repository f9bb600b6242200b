package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SchemaVersion identifies the JSON encoding; bump it on breaking changes
// to the document shape.
const SchemaVersion = "qolsr-sweep/v1"

// jsonStat is one accumulated series in machine-readable form.
type jsonStat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// jsonPoint is one density point.
type jsonPoint struct {
	Degree      float64                        `json:"degree"`
	Nodes       float64                        `json:"nodes"`
	SkippedRuns int                            `json:"skipped_runs,omitempty"`
	Protocols   map[string]map[string]jsonStat `json:"protocols"`
}

// jsonFigure is one assembled figure.
type jsonFigure struct {
	ID        string      `json:"id"`
	Title     string      `json:"title"`
	Metric    string      `json:"metric"`
	Quantity  string      `json:"quantity"`
	Runs      int         `json:"runs"`
	Protocols []string    `json:"protocols"`
	Points    []jsonPoint `json:"points"`
}

// jsonSweep is the top-level JSON document.
type jsonSweep struct {
	Schema  string       `json:"schema"`
	Figures []jsonFigure `json:"figures"`
}

// EncodeJSON writes the sweep as an indented JSON document (schema
// "qolsr-sweep/v1"): per figure, per density point, per protocol, the
// figure's quantity series as {mean, ci95, n}.
func (r *Result) EncodeJSON(w io.Writer) error {
	doc := jsonSweep{Schema: SchemaVersion}
	for _, fr := range r.Figures {
		jf := jsonFigure{
			ID:        fr.Figure.ID,
			Title:     fr.Figure.Title,
			Metric:    fr.Figure.Metric.Name(),
			Quantity:  string(fr.Figure.Quantity),
			Runs:      fr.Runs,
			Protocols: fr.ProtocolNames(),
		}
		for pi, p := range fr.Points {
			jp := jsonPoint{
				Degree:      fr.Figure.Degrees[pi],
				Nodes:       p.Nodes.Mean(),
				SkippedRuns: p.SkippedRuns,
				Protocols:   make(map[string]map[string]jsonStat, len(p.Protocols)),
			}
			for _, name := range jf.Protocols {
				pp := p.Protocols[name]
				if pp == nil {
					continue
				}
				acc := pp.Series(fr.Figure.Quantity)
				if acc == nil {
					return fmt.Errorf("runner: unknown quantity %q", fr.Figure.Quantity)
				}
				jp.Protocols[name] = map[string]jsonStat{jf.Quantity: {Mean: acc.Mean(), CI95: acc.CI95(), N: acc.N()}}
			}
			jf.Points = append(jf.Points, jp)
		}
		doc.Figures = append(doc.Figures, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// EncodeCSV writes the sweep in long form, one row per (figure, density,
// protocol) with the figure's quantity — the shape plotting tools group and
// pivot directly.
func (r *Result) EncodeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,density,protocol,quantity,mean,ci95,n"); err != nil {
		return err
	}
	for _, fr := range r.Figures {
		q := fr.Figure.Quantity
		for pi, p := range fr.Points {
			for _, name := range fr.ProtocolNames() {
				pp := p.Protocols[name]
				if pp == nil {
					continue
				}
				acc := pp.Series(q)
				if acc == nil {
					return fmt.Errorf("runner: unknown quantity %q", q)
				}
				row := []string{
					fr.Figure.ID,
					fmt.Sprintf("%g", fr.Figure.Degrees[pi]),
					name,
					string(q),
					fmt.Sprintf("%.6f", acc.Mean()),
					fmt.Sprintf("%.6f", acc.CI95()),
					fmt.Sprintf("%d", acc.N()),
				}
				if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteTables renders every figure as the aligned text table the paper
// plots, separated by blank lines.
func (r *Result) WriteTables(w io.Writer) error {
	for i, fr := range r.Figures {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := fr.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}
