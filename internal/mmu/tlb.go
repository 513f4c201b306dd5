package mmu

import "overshadow/internal/sim"

// tlbEntry caches one translation together with the shadow context it was
// filled from. Tagging entries with the context ID models a tagged TLB: a
// shadow-context switch does not have to flush, which is what makes
// multi-shadowing cheap (ablation E10d removes this and flushes instead).
type tlbEntry struct {
	vpn   uint64
	pn    uint64
	ctx   uint32
	flags Flags
}

// TLB is a software model of a set-capacity translation cache with random
// replacement, owned by exactly one vCPU: lookups, fills, and the eviction
// random stream all belong to the owner, which is always the vCPU executing
// when the TLB is consulted. Invalidations may be driven by another vCPU (a
// cross-CPU shootdown), so they take the initiating execution context
// explicitly and report how many entries were dropped — the VMM charges the
// initiator the IPI cost when a remote TLB actually held stale entries.
//
// The live entries sit in a dense slot array, so an invalidation is one scan
// of at most capacity slots with swap-remove; the index finds a key's slot
// for lookups and fills. Slot positions are host bookkeeping only: which
// entry replacement evicts is decided by order and the owner's random stream.
type TLB struct {
	cpu   *sim.VCPU
	cap   int
	slots []tlbEntry       // live entries, in no particular order
	index map[uint64]int32 // key (vpn | ctx<<40) -> position in slots
	order []uint64         // insertion keys for eviction choice
}

// NewTLB builds a TLB with the given entry capacity, owned by cpu.
func NewTLB(cpu *sim.VCPU, capacity int) *TLB {
	if capacity <= 0 {
		panic("mmu: TLB capacity must be positive")
	}
	return &TLB{
		cpu:   cpu,
		cap:   capacity,
		slots: make([]tlbEntry, 0, capacity),
		index: make(map[uint64]int32, capacity),
	}
}

func tlbKey(ctx uint32, vpn uint64) uint64 { return vpn | uint64(ctx)<<40 }

// Lookup returns the cached translation for (ctx, vpn) if present, charging
// the hit cost to the owning vCPU; the miss path cost is charged by the
// walker, not here.
func (t *TLB) Lookup(ctx uint32, vpn uint64) (PTE, bool) {
	i, ok := t.index[tlbKey(ctx, vpn)]
	if !ok {
		t.cpu.ChargeAdd(0, sim.CtrTLBMiss, 1)
		return PTE{}, false
	}
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBHit, sim.CtrTLBHit)
	e := &t.slots[i]
	return PTE{PN: e.pn, Flags: e.flags}, true
}

// Insert caches a translation, evicting a pseudo-random entry when full. The
// eviction choice draws from the owning vCPU's random stream.
func (t *TLB) Insert(ctx uint32, vpn uint64, pte PTE) {
	key := tlbKey(ctx, vpn)
	e := tlbEntry{vpn: vpn, pn: pte.PN, ctx: ctx, flags: pte.Flags}
	if i, ok := t.index[key]; ok {
		t.slots[i] = e
		return
	}
	if len(t.slots) >= t.cap {
		t.evictOne()
	}
	t.index[key] = int32(len(t.slots))
	t.slots = append(t.slots, e)
	t.order = append(t.order, key)
}

func (t *TLB) evictOne() {
	for len(t.order) > 0 {
		i := t.cpu.RNG.Intn(len(t.order))
		key := t.order[i]
		t.order[i] = t.order[len(t.order)-1]
		t.order = t.order[:len(t.order)-1]
		if s, ok := t.index[key]; ok {
			t.remove(int(s))
			return
		}
		// Stale order slot (entry was invalidated); retry.
	}
}

// remove drops the entry in slot i, moving the last slot into its place.
func (t *TLB) remove(i int) {
	e := &t.slots[i]
	delete(t.index, tlbKey(e.ctx, e.vpn))
	last := len(t.slots) - 1
	if i != last {
		*e = t.slots[last]
		t.index[tlbKey(e.ctx, e.vpn)] = int32(i)
	}
	t.slots = t.slots[:last]
}

// InvalidatePage drops the translation of vpn in every shadow context,
// charging the per-entry evict cost to the initiating vCPU, and reports how
// many entries were dropped; the VMM uses this when a page changes view
// (cloak transitions must be visible immediately in all contexts).
func (t *TLB) InvalidatePage(on *sim.VCPU, vpn uint64) int {
	dropped := 0
	// Scan downward: swap-remove moves an already-scanned slot into i.
	for i := len(t.slots) - 1; i >= 0; i-- {
		if t.slots[i].vpn == vpn {
			t.remove(i)
			on.ChargeAdd(on.World().Cost.TLBEvict, sim.CtrTLBEvict, 1)
			dropped++
		}
	}
	return dropped
}

// InvalidateRange drops the translations of every vpn in [base, base+pages)
// across all shadow contexts in a single pass over the TLB. Equivalent to
// calling InvalidatePage per vpn — same entries dropped, same per-entry evict
// charge — without paying one full-table scan per page.
func (t *TLB) InvalidateRange(on *sim.VCPU, base, pages uint64) int {
	dropped := 0
	for i := len(t.slots) - 1; i >= 0; i-- {
		if e := &t.slots[i]; e.vpn >= base && e.vpn < base+pages {
			t.remove(i)
			on.ChargeAdd(on.World().Cost.TLBEvict, sim.CtrTLBEvict, 1)
			dropped++
		}
	}
	return dropped
}

// InvalidateContext drops every translation tagged with ctx (address-space
// teardown), charging the initiating vCPU, and reports the drop count.
func (t *TLB) InvalidateContext(on *sim.VCPU, ctx uint32) int {
	dropped := 0
	for i := len(t.slots) - 1; i >= 0; i-- {
		if t.slots[i].ctx == ctx {
			t.remove(i)
			on.ChargeAdd(on.World().Cost.TLBEvict, sim.CtrTLBEvict, 1)
			dropped++
		}
	}
	return dropped
}

// Flush empties the TLB entirely, charged to the owning vCPU (a CPU only
// ever flushes its own TLB — on shadow-context switch under the flush
// ablation, never remotely).
func (t *TLB) Flush() {
	t.slots = t.slots[:0]
	clear(t.index)
	t.order = t.order[:0]
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBFlush, sim.CtrTLBFlush)
}

// Len reports the number of cached translations (for tests and stats).
func (t *TLB) Len() int { return len(t.slots) }
