package sim

import (
	"fmt"
	"testing"

	"overshadow/internal/obs"
)

func TestTraceDisabledByDefault(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.Boot().Emit(obs.KindProc, "should vanish", 1)
	h := w.Boot().Begin(obs.KindSyscall, "noop", 0)
	h.End()
	spans, ring := w.TraceSpans()
	if len(spans) != 0 || ring.Total != 0 {
		t.Fatal("spans recorded while disabled")
	}
	if w.TraceEnabled() {
		t.Fatal("TraceEnabled true without EnableTrace")
	}
}

func TestTraceRecordsInOrder(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(16)
	for i := 0; i < 5; i++ {
		w.Boot().ChargeAdd(10, CtrCompute, 0)
		w.Boot().Emit(obs.KindProc, fmt.Sprintf("event %d", i), uint64(i))
	}
	spans, ring := w.TraceSpans()
	if ring.Total != 5 || len(spans) != 5 {
		t.Fatalf("got %d/%d spans", len(spans), ring.Total)
	}
	if ring.Wrapped || ring.Dropped != 0 {
		t.Fatalf("spurious wrap: %+v", ring)
	}
	for i, s := range spans {
		if s.Arg != uint64(i) {
			t.Fatalf("order broken at %d: %v", i, s)
		}
		if i > 0 && spans[i].Start < spans[i-1].Start {
			t.Fatal("timestamps not monotone")
		}
	}
}

func TestTraceRingWrapsAndReportsDrops(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(4)
	for i := 0; i < 10; i++ {
		w.Boot().Emit(obs.KindProc, "t", uint64(i))
	}
	spans, ring := w.TraceSpans()
	if ring.Total != 10 {
		t.Fatalf("total = %d", ring.Total)
	}
	if len(spans) != 4 {
		t.Fatalf("retained %d, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Arg != uint64(6+i) {
			t.Fatalf("ring order: %v", spans)
		}
	}
	if !ring.Wrapped || ring.Dropped != 6 {
		t.Fatalf("ring state = %+v, want wrapped with 6 dropped", ring)
	}
	if !w.Tracer.Wrapped() || w.Tracer.Dropped() != 6 {
		t.Fatal("Tracer accessors disagree with export")
	}
}

func TestTracerExactlyFullIsNotWrapped(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(4)
	for i := 0; i < 4; i++ {
		w.Boot().Emit(obs.KindProc, "t", uint64(i))
	}
	if w.Tracer.Wrapped() || w.Tracer.Dropped() != 0 {
		t.Fatal("full-but-not-overwritten ring reported as wrapped")
	}
}

func TestBeginEndSpanCoversCharges(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(16)
	w.Boot().ChargeAdd(100, CtrCompute, 0)
	h := w.Boot().Begin(obs.KindSyscall, "write", 42)
	w.Boot().ChargeAdd(250, CtrCompute, 0)
	h.End()
	spans, _ := w.TraceSpans()
	if len(spans) != 1 {
		t.Fatalf("spans = %v", spans)
	}
	s := spans[0]
	if s.Start != 100 || s.Dur != 250 || s.Kind != obs.KindSyscall || s.Name != "write" || s.Arg != 42 {
		t.Fatalf("span = %+v", s)
	}
	if s.Instant {
		t.Fatal("begin/end span marked instant")
	}
}

func TestEmitSpanIsBackdated(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(16)
	w.Boot().ChargeAdd(1000, CtrCompute, 0)
	w.Boot().EmitSpan(obs.KindWorldSwitch, "enter", 0, 800)
	spans, _ := w.TraceSpans()
	if len(spans) != 1 || spans[0].Start != 200 || spans[0].Dur != 800 {
		t.Fatalf("spans = %v", spans)
	}
}

func TestSpansCarryAttribution(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(16)
	w.SetPhase("E2/cloaked")
	w.Boot().SetTask(3, 4, "kv", 0, true)
	w.Boot().SetTaskDomain(2)
	w.Boot().Emit(obs.KindCloak, "encrypt", 7)
	spans, _ := w.TraceSpans()
	want := obs.Attr{Phase: "E2/cloaked", Domain: 2, PID: 3, TID: 4, Task: "kv", Cloaked: true}
	if spans[0].Attr != want {
		t.Fatalf("attr = %+v, want %+v", spans[0].Attr, want)
	}
	if got := w.Boot().Attr(); got != want {
		t.Fatalf("Attr() = %+v", got)
	}
}

func TestEnableTraceDefaultCap(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.EnableTrace(0)
	if !w.TraceEnabled() {
		t.Fatal("not enabled")
	}
	w.Boot().Emit(obs.KindProc, "a", 0)
	if spans, _ := w.TraceSpans(); len(spans) != 1 {
		t.Fatal("default-capacity tracer dropped a span")
	}
}

func TestAttributedChargesBucketPerTask(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	m := w.EnableMetrics(nil)
	w.Boot().SetTask(1, 1, "a", 0, false)
	w.Boot().ChargeCount(100, CtrSyscall)
	w.Boot().SetTask(2, 2, "b", 0, false)
	w.Boot().ChargeCount(300, CtrSyscall)
	w.Boot().ChargeAdd(50, CtrMemAccess, 10)

	if got := m.TotalCycles(); got != 450 {
		t.Fatalf("TotalCycles = %d", got)
	}
	if uint64(w.Now()) != 450 {
		t.Fatalf("clock = %d, want attributed total 450", w.Now())
	}
	totals := map[string]uint64{}
	for _, nt := range m.TotalsSorted() {
		totals[nt.Name] = nt.Cycles
	}
	if totals[string(CtrSyscall)] != 400 || totals[string(CtrMemAccess)] != 50 {
		t.Fatalf("totals = %v", totals)
	}
	snap := m.Snapshot()
	perTask := map[string]uint64{}
	for _, p := range snap {
		perTask[p.Attr.Task] += p.Cycles
	}
	if perTask["a"] != 100 || perTask["b"] != 350 {
		t.Fatalf("per-task cycles = %v", perTask)
	}
	// Flat counters still maintained.
	if w.Stats.Get(CtrSyscall) != 2 || w.Stats.Get(CtrMemAccess) != 10 {
		t.Fatal("flat counters diverged")
	}
}

func TestChargeAddZeroEventsKeepsStatsClean(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.Boot().ChargeAdd(500, CtrIdle, 0)
	if w.Stats.Get(CtrIdle) != 0 {
		t.Fatal("zero-event ChargeAdd created a flat count")
	}
	if uint64(w.Now()) != 500 {
		t.Fatal("cycles not charged")
	}
}

func TestMetricsSharedAcrossWorlds(t *testing.T) {
	m := obs.NewMetrics(CounterTable())
	w1 := NewWorld(DefaultCostModel(), 1)
	w2 := NewWorld(DefaultCostModel(), 2)
	w1.EnableMetrics(m)
	w2.EnableMetrics(m)
	w1.SetPhase("native")
	w1.Boot().ChargeAdd(10, CtrCompute, 0)
	w2.SetPhase("cloaked")
	w2.Boot().ChargeAdd(20, CtrCompute, 0)
	if m.TotalCycles() != 30 {
		t.Fatalf("shared metrics total = %d", m.TotalCycles())
	}
}

// TestMetricsRowFollowsAttribution checks that every point where a vCPU's
// attribution changes moves its charges to the new key's row: EnableMetrics
// after a dispatch, SetTaskDomain, and SetPhase on every vCPU.
func TestMetricsRowFollowsAttribution(t *testing.T) {
	w := NewWorldN(DefaultCostModel(), 1, 2)
	a, b := w.VCPUs()[0], w.VCPUs()[1]
	a.SetTask(1, 1, "a", 0, false)
	m := w.EnableMetrics(nil)
	a.ChargeCount(10, CtrSyscall)
	a.SetTaskDomain(3)
	a.ChargeCount(20, CtrSyscall)
	b.SetTask(2, 2, "b", 0, true)
	w.SetPhase("p")
	a.ChargeCount(40, CtrSyscall)
	b.ChargeAdd(80, CtrIdle, 0)
	want := map[obs.Attr]uint64{
		{PID: 1, TID: 1, Task: "a"}:                            10,
		{PID: 1, TID: 1, Task: "a", Domain: 3}:                 20,
		{Phase: "p", PID: 1, TID: 1, Task: "a", Domain: 3}:     40,
		{Phase: "p", PID: 2, TID: 2, Task: "b", Cloaked: true}: 80,
	}
	got := map[obs.Attr]uint64{}
	for _, p := range m.Snapshot() {
		got[p.Attr] += p.Cycles
	}
	if len(got) != len(want) {
		t.Fatalf("charges landed under %d attribution keys, want %d: %v", len(got), len(want), got)
	}
	for a, c := range want {
		if got[a] != c {
			t.Errorf("%v: %d cycles, want %d", a, got[a], c)
		}
	}
}
