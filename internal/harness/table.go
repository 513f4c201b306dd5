// Package harness runs the paper-reconstruction experiments E1–E17 and
// formats their results as the tables/series EXPERIMENTS.md documents. Each
// experiment builds fresh systems (native and cloaked variants with the
// same seed), runs the matching workload, and reports simulated-cycle
// metrics, so results are deterministic and host-independent.
package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"overshadow/internal/obs"
)

// Table is one experiment's result: a titled grid with named rows, plus
// optional latency histograms (omitted from JSON when absent, so tables
// without them export byte-identically to before the field existed).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
	Hists   []TableHist `json:"Hists,omitempty"`
}

// TableHist is one named latency histogram attached to a table export. The
// companion trace's dropped-span count rides along — zero included — so
// truncation is never silent.
type TableHist struct {
	Name    string            `json:"name"`
	Dropped uint64            `json:"dropped_spans"`
	Hist    obs.HistogramJSON `json:"hist"`
}

// AddHist attaches a named histogram.
func (t *Table) AddHist(name string, h *obs.Histogram, dropped uint64) {
	t.Hists = append(t.Hists, TableHist{Name: name, Dropped: dropped, Hist: obs.BuildHistogramJSON(h)})
}

// Row is one line of a table.
type Row struct {
	Name   string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, values ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table in the fixed-width layout overbench prints.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	nameW := 24
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Columns))
	total := 0
	for i, c := range t.Columns {
		colW[i] = len(c) + 3
		if colW[i] < 14 {
			colW[i] = 14
		}
		total += colW[i]
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colW[i], c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", nameW+2+total))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, r.Name)
		for i, v := range r.Values {
			w := 14
			if i < len(colW) {
				w = colW[i]
			}
			fmt.Fprintf(&b, "%*s", w, formatCell(v))
		}
		b.WriteByte('\n')
	}
	for _, h := range t.Hists {
		fmt.Fprintf(&b, "  hist: %s  count=%d p50=%d p90=%d p99=%d max=%d dropped=%d\n",
			h.Name, h.Hist.Count, h.Hist.P50, h.Hist.P90, h.Hist.P99, h.Hist.Max, h.Dropped)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// JSON renders the table as indented JSON for machine consumption
// (overbench -json). Row order and field order are fixed, so the output is
// byte-identical across same-seed runs.
func (t *Table) JSON() string {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		panic(err) // Table holds only plain values; cannot fail
	}
	return string(data)
}

// Options tunes experiment scale. Quick shrinks parameters so the whole
// suite (and the Go benchmarks wrapping it) finishes fast; the shapes are
// preserved.
type Options struct {
	Quick bool
	Seed  uint64
	// VCPUs sizes every machine the experiments boot (0 = 1). The
	// single-vCPU output is byte-identical to builds before SMP existed.
	VCPUs int
	// Observe, when non-nil, collects attributed metrics and a profile (and
	// spans, if Observe.TraceCap > 0) from every world a RunAll call builds.
	Observe *Observer

	// Sharding state, populated by RunAll. Zero values give the serial
	// inline path (direct RunEn calls keep working unchanged).
	pool    *pool      // bounded worker pool; nil runs jobs inline
	obsBase uint64     // experiment index + 1 << 32, namespaces world keys
	obsSeq  *uint64    // next job sequence number; bumped on the experiment goroutine
	obsKey  uint64     // this job's key: obsBase | sequence
	worlds  *worldList // the run's world list; nil outside RunAll
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// scale picks between the full and quick value of a parameter.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *Table
}

// Registry lists all experiments in order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", "OS microbenchmarks (lmbench-style), native vs cloaked", RunE1},
		{"E2", "Cloaking transition cost breakdown", RunE2},
		{"E3", "CPU-bound macro workloads (SPEC-like)", RunE3},
		{"E4", "Web-server macro workload", RunE4},
		{"E5", "File I/O: native, marshalled, cloaked mmap-emulated", RunE5},
		{"E6", "Paging under memory pressure", RunE6},
		{"E7", "Cloaking metadata space overhead", RunE7},
		{"E8", "Security: attack suite outcomes", RunE8},
		{"E9", "Compile-like process mix (fork/exec heavy)", RunE9},
		{"E10", "Ablations: multi-shadowing, TLB tagging, metadata cache", RunE10},
		{"E11", "Extension: protected IPC (pipe vs protected shared memory)", RunE11},
		{"E12", "Key-value service (memcached-class), native vs cloaked", RunE12},
		{"E13", "Fault sweep: injection, quarantine containment, graceful degradation", RunE13},
		{"E14", "Crash sweep: sealed-journal recovery across deterministic crash points", RunE14},
		{"E16", "Migration sweep: sealed checkpoint-restore across machines, under load and under fire", RunE16},
		{"E17", "Adversarial kernel battery: Iago returns, races, exhaustion, introspection", RunE17},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
