package mmu

import "overshadow/internal/sim"

// tlbEntry caches one translation together with the shadow context it was
// filled from. Tagging entries with the context ID models a tagged TLB: a
// shadow-context switch does not have to flush, which is what makes
// multi-shadowing cheap (ablation E10d removes this and flushes instead).
type tlbEntry struct {
	vpn   uint64
	ctx   uint32
	pn    uint64
	flags Flags
}

// TLB is a software model of a set-capacity translation cache with random
// replacement, owned by exactly one vCPU: lookups, fills, and the eviction
// random stream all belong to the owner, which is always the vCPU executing
// when the TLB is consulted. Invalidations may be driven by another vCPU (a
// cross-CPU shootdown), so they take the initiating execution context
// explicitly and report how many entries were dropped — the VMM charges the
// initiator the IPI cost when a remote TLB actually held stale entries.
type TLB struct {
	cpu     *sim.VCPU
	cap     int
	entries map[uint64]tlbEntry // key: vpn | ctx<<40
	order   []uint64            // insertion keys for eviction choice
}

// NewTLB builds a TLB with the given entry capacity, owned by cpu.
func NewTLB(cpu *sim.VCPU, capacity int) *TLB {
	if capacity <= 0 {
		panic("mmu: TLB capacity must be positive")
	}
	return &TLB{
		cpu:     cpu,
		cap:     capacity,
		entries: make(map[uint64]tlbEntry, capacity),
	}
}

func tlbKey(ctx uint32, vpn uint64) uint64 { return vpn | uint64(ctx)<<40 }

// Lookup returns the cached translation for (ctx, vpn) if present, charging
// the hit cost to the owning vCPU; the miss path cost is charged by the
// walker, not here.
func (t *TLB) Lookup(ctx uint32, vpn uint64) (PTE, bool) {
	e, ok := t.entries[tlbKey(ctx, vpn)]
	if !ok {
		t.cpu.ChargeAdd(0, sim.CtrTLBMiss, 1)
		return PTE{}, false
	}
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBHit, sim.CtrTLBHit)
	return PTE{PN: e.pn, Flags: e.flags}, true
}

// Insert caches a translation, evicting a pseudo-random entry when full. The
// eviction choice draws from the owning vCPU's random stream.
func (t *TLB) Insert(ctx uint32, vpn uint64, pte PTE) {
	key := tlbKey(ctx, vpn)
	if _, exists := t.entries[key]; !exists && len(t.entries) >= t.cap {
		t.evictOne()
	}
	if _, exists := t.entries[key]; !exists {
		t.order = append(t.order, key)
	}
	t.entries[key] = tlbEntry{vpn: vpn, ctx: ctx, pn: pte.PN, flags: pte.Flags}
}

func (t *TLB) evictOne() {
	for len(t.order) > 0 {
		i := t.cpu.RNG.Intn(len(t.order))
		key := t.order[i]
		t.order[i] = t.order[len(t.order)-1]
		t.order = t.order[:len(t.order)-1]
		if _, ok := t.entries[key]; ok {
			delete(t.entries, key)
			return
		}
		// Stale order slot (entry was invalidated); retry.
	}
}

// InvalidatePage drops the translation of vpn in every shadow context,
// charging the per-entry evict cost to the initiating vCPU, and reports how
// many entries were dropped; the VMM uses this when a page changes view
// (cloak transitions must be visible immediately in all contexts).
func (t *TLB) InvalidatePage(on *sim.VCPU, vpn uint64) int {
	dropped := 0
	for key, e := range t.entries {
		if e.vpn == vpn {
			delete(t.entries, key)
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
	for key, e := range t.entries {
		if e.vpn >= base && e.vpn < base+pages {
			delete(t.entries, key)
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
	for key, e := range t.entries {
		if e.ctx == ctx {
			delete(t.entries, key)
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
	t.entries = make(map[uint64]tlbEntry, t.cap)
	t.order = t.order[:0]
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBFlush, sim.CtrTLBFlush)
}

// Len reports the number of cached translations (for tests and stats).
func (t *TLB) Len() int { return len(t.entries) }
