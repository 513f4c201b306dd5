package mmu

import (
	"testing"

	"overshadow/internal/sim"
)

// lookupSink keeps BenchmarkTLBLookupHit's results live.
var lookupSink PTE

// BenchmarkTLBLookupHit measures one hit on a full TLB: 256 entries over 4
// contexts, looked up in turn.
func BenchmarkTLBLookupHit(b *testing.B) {
	const ctxs, pages = 4, 64
	cpu := sim.NewWorld(sim.DefaultCostModel(), 1).Boot()
	tlb := NewTLB(cpu, ctxs*pages)
	for vpn := uint64(0); vpn < pages; vpn++ {
		for ctx := uint32(0); ctx < ctxs; ctx++ {
			tlb.Insert(ctx, vpn, PTE{PN: vpn, Flags: FlagPresent})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pte, hit := tlb.Lookup(uint32(i%ctxs), uint64(i/ctxs%pages))
		if !hit {
			b.Fatal("lookup missed on a full TLB")
		}
		lookupSink = pte
	}
}

// BenchmarkTLBInvalidatePage measures one page shootdown on a full TLB: 256
// entries over 4 contexts, with one page (its entry in every context)
// invalidated and refilled per op.
func BenchmarkTLBInvalidatePage(b *testing.B) {
	const ctxs, pages = 4, 64
	cpu := sim.NewWorld(sim.DefaultCostModel(), 1).Boot()
	var tlb *TLB
	fill := func() {
		tlb = NewTLB(cpu, ctxs*pages)
		for vpn := uint64(0); vpn < pages; vpn++ {
			for ctx := uint32(0); ctx < ctxs; ctx++ {
				tlb.Insert(ctx, vpn, PTE{PN: vpn, Flags: FlagPresent})
			}
		}
	}
	fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			// Each invalidation leaves stale eviction-order slots that only
			// evictions reclaim, and a refill to capacity never evicts:
			// rebuild before the order list grows without bound.
			b.StopTimer()
			fill()
			b.StartTimer()
		}
		vpn := uint64(i % pages)
		if n := tlb.InvalidatePage(cpu, vpn); n != ctxs {
			b.Fatalf("invalidated %d entries, want %d", n, ctxs)
		}
		for ctx := uint32(0); ctx < ctxs; ctx++ {
			tlb.Insert(ctx, vpn, PTE{PN: vpn, Flags: FlagPresent})
		}
	}
}
