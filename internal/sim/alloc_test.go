package sim

import (
	"testing"

	"overshadow/internal/fault"
	"overshadow/internal/obs"
)

// TestObservabilityOffAllocatesNothing pins the cost contract of switched-off
// observability: with trace, metrics, and profile all disabled (the default
// world), the per-event charge, span, attribution, and fault-site entry
// points allocate nothing.
func TestObservabilityOffAllocatesNothing(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	c := w.Boot()
	if w.TraceEnabled() || w.Metrics != nil || w.Profile() != nil || w.Fault != nil {
		t.Fatal("default world has observability or fault injection switched on")
	}

	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"ChargeCount", func() { c.ChargeCount(3, CtrHypercall) }},
		{"ChargeAdd", func() { c.ChargeAdd(3, CtrPageEncrypt, 2) }},
		{"Begin.End", func() { c.Begin(obs.KindSyscall, "getpid", 7).End() }},
		{"Emit", func() { c.Emit(obs.KindProc, "exit", 1) }},
		{"EmitSpan", func() { c.EmitSpan(obs.KindWorldSwitch, "switch", 0, 40) }},
		{"SetTask", func() { c.SetTask(2, 3, "victim", 1, true) }},
		{"InjectAt", func() { c.InjectAt(fault.SiteDiskWrite) }},
	} {
		if got := testing.AllocsPerRun(100, op.fn); got != 0 {
			t.Errorf("%s with observability off: %v allocs/op, want 0", op.name, got)
		}
	}
}
