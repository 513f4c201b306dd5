package obs

import "sort"

// Counters is the fixed counter vocabulary that attributed stores index
// their rows by: slot i is named names[i]. The simulator builds one table
// from its counter list, so a charge carries a slot and names appear only
// at export.
type Counters struct {
	names []string
	// byName lists the slots in name order, the order every export emits
	// a row's cells in.
	byName []int
}

// NewCounters builds the vocabulary whose slot i is names[i].
func NewCounters[S ~string](names []S) *Counters {
	cs := &Counters{names: make([]string, len(names)), byName: make([]int, len(names))}
	for i, n := range names {
		cs.names[i], cs.byName[i] = string(n), i
	}
	sort.Slice(cs.byName, func(i, j int) bool { return cs.names[cs.byName[i]] < cs.names[cs.byName[j]] })
	return cs
}

// cell is one counter's accumulation in a Row. Charged records that the
// counter was charged at all: exports keep a cell charged zero cycles.
type cell struct {
	Cycles, Events uint64
	Charged        bool
}

// Row is one dense row of cells indexed by counter slot. A row never
// resizes, so a Row value handed out by a store stays valid as it grows.
type Row []cell

// Add charges cycles and events to the counter in slot.
func (r Row) Add(slot int, cycles, events uint64) {
	c := &r[slot]
	c.Cycles += cycles
	c.Events += events
	c.Charged = true
}

// merge adds every charged cell of o into r.
func (r Row) merge(o Row) {
	for s, c := range o {
		if c.Charged {
			r.Add(s, c.Cycles, c.Events)
		}
	}
}

// cycles sums the row's cycles.
func (r Row) cycles() uint64 {
	var total uint64
	for _, c := range r {
		total += c.Cycles
	}
	return total
}

// attrRow is one attribution key's row.
type attrRow struct {
	attr Attr
	row  Row
}

// Metrics is the attributed cycle-accounting store: one Row per attribution
// key, in first-use order. The key-to-row index is consulted only when a
// vCPU's attribution changes; a charge is an array add through the Row
// handle the vCPU holds. Nothing here reads host state, so two runs with
// the same seed produce identical snapshots.
type Metrics struct {
	ctrs  *Counters
	rows  []attrRow
	index map[Attr]int
}

// NewMetrics returns an empty attributed-metrics store over ctrs.
func NewMetrics(ctrs *Counters) *Metrics {
	return &Metrics{ctrs: ctrs, index: make(map[Attr]int)}
}

// Row returns the row of attribution key a, creating it on first use.
func (m *Metrics) Row(a Attr) Row {
	if i, ok := m.index[a]; ok {
		return m.rows[i].row
	}
	// Amortized: one row per distinct attribution key, not per charge; the
	// key space (task × domain × phase) is small and fixed.
	r := make(Row, len(m.ctrs.names))
	m.index[a] = len(m.rows)
	m.rows = append(m.rows, attrRow{attr: a, row: r})
	return r
}

// Charge records cycles (and optionally events) against counter slot under
// attribution key a.
func (m *Metrics) Charge(a Attr, slot int, cycles, events uint64) {
	m.Row(a).Add(slot, cycles, events)
}

// TotalCycles reports the sum of all attributed cycles.
func (m *Metrics) TotalCycles() uint64 {
	var total uint64
	for _, r := range m.rows {
		total += r.row.cycles()
	}
	return total
}

// NameTotal is one (counter name, cycles) pair of TotalsSorted.
type NameTotal struct {
	Name   string
	Cycles uint64
}

// TotalsSorted sums attributed cycles per counter across all attribution
// keys and returns the charged counters' totals in name order, so caller
// iteration order — including float accumulation order — is deterministic
// by construction.
func (m *Metrics) TotalsSorted() []NameTotal {
	sum := make(Row, len(m.ctrs.names))
	for _, r := range m.rows {
		sum.merge(r.row)
	}
	out := make([]NameTotal, 0, len(sum))
	for _, s := range m.ctrs.byName {
		if sum[s].Charged {
			out = append(out, NameTotal{Name: m.ctrs.names[s], Cycles: sum[s].Cycles})
		}
	}
	return out
}

// MetricPoint is one (attribution, counter) cell of a metrics snapshot.
type MetricPoint struct {
	Attr   Attr
	Name   string
	Cycles uint64
	Events uint64
}

// Snapshot flattens the store into a deterministically ordered slice:
// attribution keys in key order, charged counters in name order within
// each.
func (m *Metrics) Snapshot() []MetricPoint {
	rows := append([]attrRow(nil), m.rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].attr.key() < rows[j].attr.key() })
	var out []MetricPoint
	for _, r := range rows {
		for _, s := range m.ctrs.byName {
			if c := r.row[s]; c.Charged {
				out = append(out, MetricPoint{Attr: r.attr, Name: m.ctrs.names[s], Cycles: c.Cycles, Events: c.Events})
			}
		}
	}
	return out
}

// Merge adds every cell of other, a store over the same counters, into m.
// Addition commutes, so merging the same set of per-world stores in any
// order yields identical totals — the property the sharded harness relies
// on for byte-identical exports.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	for _, r := range other.rows {
		m.Row(r.attr).merge(r.row)
	}
}
