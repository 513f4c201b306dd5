package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// ReportSchema identifies the run-report format. Bump it on any breaking
// change so downstream tooling can refuse reports it cannot read.
const ReportSchema = "overshadow-report/v1"

// CounterJSON is one counter cell of a report bucket.
type CounterJSON struct {
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events,omitempty"`
}

// BucketJSON is one attribution bucket of a report: the cycles charged
// under one attribution key, by counter.
type BucketJSON struct {
	Attr     Attr          `json:"attr"`
	Cycles   uint64        `json:"cycles"`
	Counters []CounterJSON `json:"counters"`
}

// ProfHistJSON is one (kind, domain) duration histogram of a report.
type ProfHistJSON struct {
	Kind   string `json:"kind"`
	Domain uint32 `json:"domain"`
	HistogramJSON
}

// Report is the run report: where the simulated cycles went, both by
// attribution bucket (task, domain and phase) and by call chain (folded
// stacks), plus the per-(kind, domain) span-duration histograms. Both views
// sum the same charges, so they share one total. It is what overbench
// -report writes and what cmd/overprof renders.
type Report struct {
	Schema      string `json:"schema"`
	TotalCycles uint64 `json:"total_cycles"`
	// DroppedSpans is the companion trace rings' dropped-span total, so
	// trace truncation is never silent. Buckets, stacks and histograms are
	// fed at charge and span completion, not from the rings, so they are
	// complete regardless.
	DroppedSpans uint64         `json:"dropped_spans"`
	Buckets      []BucketJSON   `json:"buckets"`
	Folded       []FoldedLine   `json:"folded"`
	Histograms   []ProfHistJSON `json:"histograms"`
}

// BuildReport assembles the report from a metrics store and a profile that
// saw the same charges, plus the trace rings' dropped-span count. Every list
// is key-sorted: buckets by attribution key with counters by name, stacks
// depth-first by frame, histograms by (kind, domain).
func BuildReport(m *Metrics, p *Profile, droppedSpans uint64) *Report {
	r := &Report{
		Schema:       ReportSchema,
		TotalCycles:  m.TotalCycles(),
		DroppedSpans: droppedSpans,
		Buckets:      []BucketJSON{},
		Folded:       p.FoldedLines(),
	}
	var cur *BucketJSON
	for _, pt := range m.Snapshot() {
		if cur == nil || cur.Attr != pt.Attr {
			r.Buckets = append(r.Buckets, BucketJSON{Attr: pt.Attr})
			cur = &r.Buckets[len(r.Buckets)-1]
		}
		cur.Cycles += pt.Cycles
		cur.Counters = append(cur.Counters, CounterJSON{Name: pt.Name, Cycles: pt.Cycles, Events: pt.Events})
	}
	for _, e := range p.Hists() {
		r.Histograms = append(r.Histograms, ProfHistJSON{
			Kind:          e.Key.Kind.String(),
			Domain:        e.Key.Domain,
			HistogramJSON: BuildHistogramJSON(e.Hist),
		})
	}
	return r
}

// WriteReport serializes the report with stable indentation.
func WriteReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseReport decodes a report and checks its schema tag.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("parse report: schema %q, want %q", r.Schema, ReportSchema)
	}
	return &r, nil
}

// WriteFolded prints the report's folded stacks in the standard flame-graph
// collapsed format: "frame;frame;leaf cycles" per line.
func WriteFolded(w io.Writer, r *Report) error {
	for _, l := range r.Folded {
		if _, err := fmt.Fprintf(w, "%s %d\n", l.Stack, l.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// FrameStat is one row of the top-N table: a frame's self cycles (charged
// with the frame innermost) and total cycles (charged anywhere beneath it).
type FrameStat struct {
	Frame string
	Self  uint64
	Total uint64
}

// TopFrames computes per-frame self/total cycles from the folded stacks
// using standard flame-graph semantics — each line's cycles count toward the
// total of every distinct frame on the stack and toward the self of the
// innermost frame — and returns the top n rows ordered by self cycles
// (total, then frame name, break ties). n <= 0 returns every frame.
func TopFrames(r *Report, n int) []FrameStat {
	var out []FrameStat
	row := make(map[string]int) // frame → its index in out
	for _, l := range r.Folded {
		frames := strings.Split(l.Stack, ";")
		for i, f := range frames {
			j, ok := row[f]
			if !ok {
				j = len(out)
				row[f] = j
				out = append(out, FrameStat{Frame: f})
			}
			if !slices.Contains(frames[:i], f) {
				out[j].Total += l.Cycles
			}
			if i == len(frames)-1 {
				out[j].Self += l.Cycles
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Frame < out[j].Frame
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteTopN prints the top-n self/total table with percent-of-total columns.
func WriteTopN(w io.Writer, r *Report, n int) error {
	rows := TopFrames(r, n)
	if _, err := fmt.Fprintf(w, "%-44s %14s %7s %14s %7s\n", "frame", "self", "self%", "total", "total%"); err != nil {
		return err
	}
	for _, f := range rows {
		if _, err := fmt.Fprintf(w, "%-44s %14d %6.2f%% %14d %6.2f%%\n",
			f.Frame, f.Self, pct(f.Self, r.TotalCycles), f.Total, pct(f.Total, r.TotalCycles)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-44s %14d\n", "total", r.TotalCycles)
	return err
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteHistTable prints the per-(kind, domain) duration percentile table.
// The dropped-span count is always printed — zero included — so truncation
// of the companion trace is never silent.
func WriteHistTable(w io.Writer, hists []ProfHistJSON, dropped uint64) error {
	if _, err := fmt.Fprintf(w, "%-12s %6s %10s %12s %12s %12s %12s %12s\n",
		"kind", "dom", "count", "min", "p50", "p90", "p99", "max"); err != nil {
		return err
	}
	for _, h := range hists {
		if _, err := fmt.Fprintf(w, "%-12s %6d %10d %12d %12d %12d %12d %12d\n",
			h.Kind, h.Domain, h.Count, h.Min, h.P50, h.P90, h.P99, h.Max); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "dropped spans: %d\n", dropped)
	return err
}
