package sim

import "testing"

// BenchmarkChargeAccess measures the charge pair every simulated guest load
// or store pays with observability off: the TLB-hit charge, then one cache
// line of memory access.
func BenchmarkChargeAccess(b *testing.B) {
	w := NewWorld(DefaultCostModel(), 1)
	c := w.Boot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ChargeCount(w.Cost.TLBHit, CtrTLBHit)
		c.ChargeAdd(w.Cost.MemAccess, CtrMemAccess, 1)
	}
}
