package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestMetricsChargeAndTotals(t *testing.T) {
	m := NewMetrics(testCtrs)
	a := Attr{PID: 3, TID: 3, Task: "kv", Cloaked: true, Domain: 2}
	b := Attr{PID: 4, TID: 4, Task: "web"}
	m.Charge(a, slotOf("cloak.encrypt"), 100, 1)
	m.Charge(a, slotOf("cloak.encrypt"), 50, 1)
	m.Charge(a, slotOf("mem.access"), 8, 2)
	m.Charge(b, slotOf("mem.access"), 4, 1)
	m.Charge(b, slotOf("cpu.idle"), 1000, 0)

	if got := m.TotalCycles(); got != 1162 {
		t.Fatalf("TotalCycles = %d, want 1162", got)
	}
	want := []NameTotal{
		{Name: "cloak.encrypt", Cycles: 150},
		{Name: "cpu.idle", Cycles: 1000},
		{Name: "mem.access", Cycles: 12},
	}
	if got := m.TotalsSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TotalsSorted = %v, want %v", got, want)
	}
}

func TestMetricsSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []int) []MetricPoint {
		m := NewMetrics(testCtrs)
		attrs := []Attr{{PID: 1, TID: 1}, {PID: 2, TID: 2}, {Phase: "E2", PID: 1, TID: 1}}
		for _, i := range order {
			m.Charge(attrs[i], slotOf("z.ctr"), uint64(10*(i+1)), 1)
			m.Charge(attrs[i], slotOf("a.ctr"), uint64(i+1), 1)
		}
		return m.Snapshot()
	}
	s1 := build([]int{0, 1, 2})
	s2 := build([]int{2, 0, 1})
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshot order depends on insertion order:\n%v\n%v", s1, s2)
	}
	// Counter names alphabetical within each attr.
	if s1[0].Name != "a.ctr" || s1[1].Name != "z.ctr" {
		t.Fatalf("counter order: %v", s1)
	}
}

func TestMetricsZeroEventsCreateNoCount(t *testing.T) {
	m := NewMetrics(testCtrs)
	m.Charge(Attr{}, slotOf("cpu.idle"), 500, 0)
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Events != 0 || snap[0].Cycles != 500 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestMetricsRowOutlivesGrowth pins the handle contract the charge path
// relies on: a Row taken before the store grows still lands its charges.
func TestMetricsRowOutlivesGrowth(t *testing.T) {
	m := NewMetrics(testCtrs)
	r := m.Row(Attr{PID: 1, TID: 1})
	for pid := 2; pid < 100; pid++ {
		m.Charge(Attr{PID: pid, TID: pid}, slotOf("tlb.hit"), 1, 1)
	}
	r.Add(slotOf("tlb.hit"), 0, 1)
	snap := m.Snapshot()
	if snap[0].Attr.PID != 1 || snap[0].Name != "tlb.hit" || snap[0].Cycles != 0 || snap[0].Events != 1 {
		t.Fatalf("first point = %+v, want pid 1's zero-cycle tlb.hit", snap[0])
	}
}

func TestAttrString(t *testing.T) {
	if got := (Attr{}).String(); got != "machine" {
		t.Fatalf("zero attr = %q", got)
	}
	a := Attr{Phase: "E2/cloaked", Domain: 2, PID: 3, TID: 4, Task: "kv", Cloaked: true}
	s := a.String()
	for _, want := range []string{"E2/cloaked", "pid 3", "tid 4", `"kv"`, "dom 2", "cloaked"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Attr.String() = %q, missing %q", s, want)
		}
	}
}
