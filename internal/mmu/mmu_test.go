package mmu

import (
	"testing"

	"overshadow/internal/sim"
)

func testWorld() *sim.World { return sim.NewWorld(sim.DefaultCostModel(), 1) }

// faultSink keeps TestProbeAllocs's permission checks live.
var faultSink Fault

func TestFlagsString(t *testing.T) {
	f := FlagPresent | FlagWritable | FlagDirty
	if got := f.String(); got != "PW--d-" {
		t.Fatalf("Flags.String() = %q", got)
	}
}

func TestPTEPresent(t *testing.T) {
	if (PTE{}).Present() {
		t.Fatal("zero PTE present")
	}
	if !(PTE{Flags: FlagPresent}).Present() {
		t.Fatal("present PTE not present")
	}
}

func TestCheckPerms(t *testing.T) {
	userRW := PTE{PN: 1, Flags: FlagPresent | FlagWritable | FlagUser}
	userRO := PTE{PN: 1, Flags: FlagPresent | FlagUser}
	kernRW := PTE{PN: 1, Flags: FlagPresent | FlagWritable}
	nx := PTE{PN: 1, Flags: FlagPresent | FlagUser | FlagNX}

	cases := []struct {
		name   string
		pte    PTE
		access AccessType
		user   bool
		fault  bool
		reason FaultReason
	}{
		{"user read rw", userRW, AccessRead, true, false, 0},
		{"user write rw", userRW, AccessWrite, true, false, 0},
		{"user write ro", userRO, AccessWrite, true, true, FaultProtection},
		{"user read kernel page", kernRW, AccessRead, true, true, FaultProtection},
		{"kernel write kernel page", kernRW, AccessWrite, false, false, 0},
		{"exec nx", nx, AccessExec, true, true, FaultProtection},
		{"read nx", nx, AccessRead, true, false, 0},
		{"not present", PTE{}, AccessRead, true, true, FaultNotPresent},
	}
	for _, c := range cases {
		f, ok := CheckPerms(7, c.pte, c.access, c.user)
		if ok == c.fault {
			t.Errorf("%s: fault=%v, want %v", c.name, !ok, c.fault)
			continue
		}
		want := Fault{}
		if c.fault {
			want = Fault{VPN: 7, Access: c.access, Reason: c.reason, User: c.user}
		}
		if f != want {
			t.Errorf("%s: fault %+v, want %+v", c.name, f, want)
		}
	}
}

// TestProbeAllocs pins the MMU's per-access bookkeeping at zero host
// allocations: a permission check, allowed or refused (the refused one is
// the shadow-walk probe of every hidden fault), and a page invalidation,
// which probes the index once per live context tag.
func TestProbeAllocs(t *testing.T) {
	rw := PTE{PN: 1, Flags: FlagPresent | FlagWritable | FlagUser}
	for _, pte := range []PTE{rw, {}} {
		if n := testing.AllocsPerRun(100, func() {
			faultSink, _ = CheckPerms(7, pte, AccessWrite, true)
		}); n != 0 {
			t.Errorf("CheckPerms(%v) allocates %v times, want 0", pte, n)
		}
	}

	const ctxs, pages = 4, 64
	cpu := testWorld().Boot()
	tlb := NewTLB(cpu, ctxs*pages)
	for vpn := uint64(0); vpn < pages; vpn++ {
		for ctx := uint32(0); ctx < ctxs; ctx++ {
			tlb.Insert(ctx, vpn, PTE{PN: vpn, Flags: FlagPresent})
		}
	}
	// AllocsPerRun calls once more than its run count: one call per page.
	vpn := uint64(0)
	if n := testing.AllocsPerRun(pages-1, func() {
		if got := tlb.InvalidatePage(cpu, vpn); got != ctxs {
			t.Fatalf("invalidated %d entries of vpn %d, want %d", got, vpn, ctxs)
		}
		vpn++
	}); n != 0 {
		t.Errorf("InvalidatePage allocates %v times, want 0", n)
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{VPN: 0x10, Access: AccessWrite, Reason: FaultProtection, User: true}
	if f.Error() == "" {
		t.Fatal("empty fault message")
	}
}

// presentVPNs returns the VPNs Range visits, in its order.
func presentVPNs(pt *PageTable) []uint64 {
	var out []uint64
	pt.Range(func(vpn uint64, _ PTE) bool {
		out = append(out, vpn)
		return true
	})
	return out
}

func TestPageTableMapLookupUnmap(t *testing.T) {
	pt := NewPageTable()
	pte := PTE{PN: 42, Flags: FlagPresent | FlagUser}
	pt.Map(123, pte)
	if got := pt.Lookup(123); got != pte {
		t.Fatalf("Lookup = %v, want %v", got, pte)
	}
	if got := presentVPNs(pt); len(got) != 1 || got[0] != 123 {
		t.Fatalf("Range visits %v, want [123]", got)
	}
	pt.Unmap(123)
	if pt.Lookup(123).Present() {
		t.Fatal("entry still present after Unmap")
	}
	if got := presentVPNs(pt); len(got) != 0 {
		t.Fatalf("Range visits %v after unmap, want none", got)
	}
}

func TestPageTableReplaceKeepsCount(t *testing.T) {
	pt := NewPageTable()
	pt.Map(5, PTE{PN: 1, Flags: FlagPresent})
	pt.Map(5, PTE{PN: 2, Flags: FlagPresent | FlagWritable})
	if got := presentVPNs(pt); len(got) != 1 {
		t.Fatalf("Range visits %v after replace, want one entry", got)
	}
	if pt.Lookup(5).PN != 2 {
		t.Fatal("replace did not take effect")
	}
}

func TestPageTableSparseLookup(t *testing.T) {
	pt := NewPageTable()
	if pt.Lookup(999999).Present() {
		t.Fatal("empty table returned present entry")
	}
	if pt.Lookup(MaxVPN + 10).Present() {
		t.Fatal("out-of-range VPN returned present entry")
	}
}

func TestPageTableMapOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Map beyond MaxVPN did not panic")
		}
	}()
	NewPageTable().Map(MaxVPN+1, PTE{Flags: FlagPresent})
}

func TestPageTableFlagsOps(t *testing.T) {
	pt := NewPageTable()
	pt.Map(8, PTE{PN: 3, Flags: FlagPresent | FlagWritable})
	if !pt.SetFlags(8, FlagDirty) {
		t.Fatal("SetFlags failed on mapped page")
	}
	if !pt.Lookup(8).Flags.Has(FlagDirty) {
		t.Fatal("dirty bit not set")
	}
	if !pt.ClearFlags(8, FlagWritable) {
		t.Fatal("ClearFlags failed")
	}
	if pt.Lookup(8).Flags.Has(FlagWritable) {
		t.Fatal("writable bit not cleared")
	}
	if pt.SetFlags(77, FlagDirty) {
		t.Fatal("SetFlags succeeded on unmapped page")
	}
}

func TestPageTableRangeOrderedAndCancelable(t *testing.T) {
	pt := NewPageTable()
	vpns := []uint64{5000, 3, 1 << 15, 77, 1024}
	for _, v := range vpns {
		pt.Map(v, PTE{PN: v * 2, Flags: FlagPresent})
	}
	got := presentVPNs(pt)
	if len(got) != len(vpns) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(vpns))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	n := 0
	pt.Range(func(vpn uint64, pte PTE) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("Range visited %d after cancel, want 2", n)
	}
}

// TestPageTableRangeInMatchesLookup: on random sparse tables — most middle
// nodes never allocated, some leaves allocated but holding no present entry
// — RangeIn over random [base, end) ranges that cross leaves and middle
// nodes or run past MaxVPN visits exactly the present VPNs a per-VPN Lookup
// loop finds, ascending and each once, while its callback unmaps every
// entry it visits.
func TestPageTableRangeInMatchesLookup(t *testing.T) {
	rng := sim.NewRNG(31)
	const (
		midSpan = 1 << midShift // VPNs under one middle node
		lastMid = MaxVPN >> midShift
	)
	for trial := 0; trial < 300; trial++ {
		pt := NewPageTable()
		// Leaves under middle nodes 0..3 and the last one, so ranges reach
		// both the middle of the table and its top edge.
		for n := 1 + rng.Intn(12); n > 0; n-- {
			mi := uint64(rng.Intn(4))
			if rng.Intn(4) == 0 {
				mi = lastMid
			}
			leafBase := mi<<midShift | uint64(rng.Intn(midSpan))&^(leafSize-1)
			switch entries := rng.Intn(40); {
			case entries < 8:
				// An allocated leaf with no present entry.
				vpn := leafBase | uint64(rng.Intn(leafSize))
				pt.Map(vpn, PTE{PN: vpn, Flags: FlagPresent})
				pt.Unmap(vpn)
			default:
				for ; entries > 0; entries-- {
					vpn := leafBase | uint64(rng.Intn(leafSize))
					pt.Map(vpn, PTE{PN: vpn, Flags: FlagPresent})
				}
			}
		}
		base := uint64(rng.Intn(4 * midSpan))
		end := base + uint64(rng.Intn(2*midSpan))
		if rng.Intn(3) == 0 {
			base = lastMid<<midShift + uint64(rng.Intn(midSpan))
			end = MaxVPN + 1 + uint64(rng.Intn(2*leafSize))
		}

		var want []uint64
		for vpn := base; vpn < end; vpn++ {
			if pt.Lookup(vpn).Present() {
				want = append(want, vpn)
			}
		}
		var got []uint64
		pt.RangeIn(base, end, func(vpn uint64, pte PTE) bool {
			if pte != pt.Lookup(vpn) || !pte.Present() {
				t.Fatalf("trial %d: vpn %#x visited with %v, table holds %v", trial, vpn, pte, pt.Lookup(vpn))
			}
			got = append(got, vpn)
			pt.Unmap(vpn)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d [%#x,%#x): visited %d VPNs, Lookup finds %d", trial, base, end, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d [%#x,%#x): visit %d is %#x, want %#x (ascending, once each)",
					trial, base, end, i, got[i], want[i])
			}
		}
	}
}

func TestPageTableClear(t *testing.T) {
	pt := NewPageTable()
	for i := uint64(0); i < 100; i++ {
		pt.Map(i*37, PTE{PN: i, Flags: FlagPresent})
	}
	pt.Clear()
	if got := presentVPNs(pt); len(got) != 0 {
		t.Fatalf("Clear left entries behind: %v", got)
	}
	for i := uint64(0); i < 100; i++ {
		if got := pt.Lookup(i * 37); got != (PTE{}) {
			t.Fatalf("Lookup(%d) = %v after Clear", i*37, got)
		}
	}
}

func TestTLBHitMiss(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	if _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("hit on empty TLB")
	}
	pte := PTE{PN: 7, Flags: FlagPresent | FlagUser}
	tlb.Insert(1, 100, pte)
	got, ok := tlb.Lookup(1, 100)
	if !ok || got != pte {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	if w.Stats.Get(sim.CtrTLBHit) != 1 || w.Stats.Get(sim.CtrTLBMiss) != 1 {
		t.Fatalf("hit/miss counters = %d/%d, want 1/1",
			w.Stats.Get(sim.CtrTLBHit), w.Stats.Get(sim.CtrTLBMiss))
	}
}

func TestTLBContextTagging(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	tlb.Insert(1, 100, PTE{PN: 7, Flags: FlagPresent})
	if _, ok := tlb.Lookup(2, 100); ok {
		t.Fatal("context 2 saw context 1's translation")
	}
}

func TestTLBInvalidatePageAllContexts(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	tlb.Insert(1, 100, PTE{PN: 7, Flags: FlagPresent})
	tlb.Insert(2, 100, PTE{PN: 9, Flags: FlagPresent})
	tlb.Insert(1, 101, PTE{PN: 8, Flags: FlagPresent})
	tlb.InvalidatePage(w.Boot(), 100)
	if _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("ctx1 vpn100 survived invalidation")
	}
	if _, ok := tlb.Lookup(2, 100); ok {
		t.Fatal("ctx2 vpn100 survived invalidation")
	}
	if _, ok := tlb.Lookup(1, 101); !ok {
		t.Fatal("unrelated entry was invalidated")
	}
}

func TestTLBInvalidateContext(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	tlb.Insert(1, 100, PTE{PN: 7, Flags: FlagPresent})
	tlb.Insert(2, 200, PTE{PN: 9, Flags: FlagPresent})
	tlb.InvalidateContext(w.Boot(), 1)
	if _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("ctx1 entry survived context invalidation")
	}
	if _, ok := tlb.Lookup(2, 200); !ok {
		t.Fatal("ctx2 entry wrongly invalidated")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 4)
	for vpn := uint64(0); vpn < 20; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	if tlb.Len() > 4 {
		t.Fatalf("TLB grew to %d entries, cap 4", tlb.Len())
	}
}

func TestTLBFlush(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 8)
	tlb.Insert(1, 1, PTE{PN: 1, Flags: FlagPresent})
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatal("Flush left entries")
	}
	if w.Stats.Get(sim.CtrTLBFlush) != 1 {
		t.Fatal("flush counter not incremented")
	}
}

func TestTLBReinsertAfterEvictionStaleOrder(t *testing.T) {
	// Exercises the stale-order-slot path: invalidate entries, then force
	// evictions; the TLB must stay within capacity and not panic.
	w := testWorld()
	tlb := NewTLB(w.Boot(), 4)
	for vpn := uint64(0); vpn < 4; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	tlb.InvalidatePage(w.Boot(), 0)
	tlb.InvalidatePage(w.Boot(), 1)
	for vpn := uint64(10); vpn < 30; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	if tlb.Len() > 4 {
		t.Fatalf("TLB exceeded capacity: %d", tlb.Len())
	}
}
