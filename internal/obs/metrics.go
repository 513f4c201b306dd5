package obs

import "sort"

// bucket accumulates per-counter cycles and event counts for one Attr.
type bucket struct {
	cycles map[string]uint64
	counts map[string]uint64
}

// Metrics is the attributed cycle-accounting store: every cost-model charge
// is bucketed under (attribution key, counter name). Nothing here reads host
// state; buckets are plain accumulators, so two runs with the same seed
// produce identical snapshots.
type Metrics struct {
	buckets map[Attr]*bucket
}

// NewMetrics returns an empty attributed-metrics store.
func NewMetrics() *Metrics { return &Metrics{buckets: make(map[Attr]*bucket)} }

// Charge records cycles (and optionally events) against counter name under
// attribution key a.
func (m *Metrics) Charge(a Attr, name string, cycles, events uint64) {
	b := m.buckets[a]
	if b == nil {
		// Amortized: one allocation per distinct attribution key, not per
		// charge; the key space (task × domain × phase) is small and fixed.
		b = &bucket{cycles: make(map[string]uint64), counts: make(map[string]uint64)}
		m.buckets[a] = b
	}
	b.cycles[name] += cycles
	if events != 0 {
		b.counts[name] += events
	}
}

// TotalCycles reports the sum of all attributed cycles.
func (m *Metrics) TotalCycles() uint64 {
	var total uint64
	//overlint:allow determinism -- commutative sum; iteration order cannot reach serialized bytes
	for _, b := range m.buckets {
		//overlint:allow determinism -- commutative sum; iteration order cannot reach serialized bytes
		for _, c := range b.cycles {
			total += c
		}
	}
	return total
}

// NameTotal is one (counter name, cycles) pair of TotalsSorted.
type NameTotal struct {
	Name   string
	Cycles uint64
}

// TotalsSorted sums attributed cycles per counter name across all
// attribution keys and returns the totals in name order. It replaces the
// map-returning TotalsByName: with a sorted slice, caller iteration order —
// including float accumulation order — is deterministic by construction.
func (m *Metrics) TotalsSorted() []NameTotal {
	totals := make(map[string]uint64)
	//overlint:allow determinism -- additive fold into a scratch map, sorted before return
	for _, b := range m.buckets {
		//overlint:allow determinism -- additive fold into a scratch map, sorted before return
		for name, c := range b.cycles {
			totals[name] += c
		}
	}
	names := make([]string, 0, len(totals))
	//overlint:allow determinism -- keys are collected then sorted before return
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]NameTotal, 0, len(names))
	for _, name := range names {
		out = append(out, NameTotal{Name: name, Cycles: totals[name]})
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
// attribution keys in key order, counter names alphabetical within each.
func (m *Metrics) Snapshot() []MetricPoint {
	attrs := make([]Attr, 0, len(m.buckets))
	//overlint:allow determinism -- keys are collected then sorted before serialization
	for a := range m.buckets {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].key() < attrs[j].key() })
	var out []MetricPoint
	for _, a := range attrs {
		b := m.buckets[a]
		names := make([]string, 0, len(b.cycles))
		//overlint:allow determinism -- keys are collected then sorted before serialization
		for n := range b.cycles {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, MetricPoint{Attr: a, Name: n, Cycles: b.cycles[n], Events: b.counts[n]})
		}
	}
	return out
}

// Merge adds every cell of other into m. Addition commutes, so merging the
// same set of per-world stores in any order yields identical totals — the
// property the sharded harness relies on for byte-identical exports.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	//overlint:allow determinism -- additive merge; iteration order cannot reach serialized bytes
	for a, ob := range other.buckets {
		b := m.buckets[a]
		if b == nil {
			b = &bucket{cycles: make(map[string]uint64), counts: make(map[string]uint64)}
			m.buckets[a] = b
		}
		//overlint:allow determinism -- additive merge; iteration order cannot reach serialized bytes
		for name, c := range ob.cycles {
			b.cycles[name] += c
		}
		//overlint:allow determinism -- additive merge; iteration order cannot reach serialized bytes
		for name, n := range ob.counts {
			b.counts[name] += n
		}
	}
}

// Reset drops all buckets.
func (m *Metrics) Reset() { m.buckets = make(map[Attr]*bucket) }
