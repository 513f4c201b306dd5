package mmu

import (
	"math/bits"

	"overshadow/internal/sim"
)

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

func (e *tlbEntry) key() uint64 { return tlbKey(e.ctx, e.vpn) }

// TLB is a software model of a set-capacity translation cache with random
// replacement, owned by exactly one vCPU: lookups, fills, and the eviction
// random stream all belong to the owner, which is always the vCPU executing
// when the TLB is consulted. Invalidations may be driven by another vCPU (a
// cross-CPU shootdown), so they take the initiating execution context
// explicitly and report how many entries were dropped — the VMM charges the
// initiator the IPI cost when a remote TLB actually held stale entries.
//
// The live entries sit in a dense slot array with swap-remove, and the index
// finds a key's slot for lookups, fills and page invalidations. A page
// invalidation probes the index once per context tag that has live entries,
// so its host cost does not grow with the number of cached entries; range and
// context invalidations scan the slots. Slot positions and the order tags are
// probed in are host bookkeeping only: which entry replacement evicts is
// decided by order and the owner's random stream.
type TLB struct {
	cpu   *sim.VCPU
	cap   int
	slots []tlbEntry // live entries, in no particular order
	// index is an open-addressed table with linear probing over the keys
	// (vpn | ctx<<40) of slots: a cell holds a slot position + 1, and 0 marks
	// it empty. Its size is the smallest power of two at least twice the
	// capacity, so it is never more than half full and every probe run ends.
	index []int32
	shift uint     // 64 - log2(len(index)), for Fibonacci hashing
	order []uint64 // insertion keys for eviction choice
	// tags holds each context tag that has live entries, with their count;
	// a tag leaves when its count reaches zero. An address space has two
	// tags (one per view), so the list stays short.
	tags []tlbTag
}

// tlbTag counts the live entries filled under one context tag.
type tlbTag struct {
	ctx  uint32
	live int32
}

// NewTLB builds a TLB with the given entry capacity, owned by cpu.
func NewTLB(cpu *sim.VCPU, capacity int) *TLB {
	if capacity <= 0 {
		panic("mmu: TLB capacity must be positive")
	}
	log2 := bits.Len(uint(2*capacity - 1))
	return &TLB{
		cpu:   cpu,
		cap:   capacity,
		slots: make([]tlbEntry, 0, capacity),
		index: make([]int32, 1<<log2),
		shift: uint(64 - log2),
	}
}

func tlbKey(ctx uint32, vpn uint64) uint64 { return vpn | uint64(ctx)<<40 }

// home returns the index cell where a probe for key starts: Fibonacci
// hashing keeps the top bits of the key times 2^64/phi.
func (t *TLB) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> t.shift) }

// find returns the index cell for key and its content: the cell naming key's
// slot (s = slot+1) when key is cached, else the empty cell (s = 0) that ends
// its probe run.
func (t *TLB) find(key uint64) (c int, s int32) {
	mask := len(t.index) - 1
	for c = t.home(key); ; c = (c + 1) & mask {
		if s = t.index[c]; s == 0 || t.slots[s-1].key() == key {
			return c, s
		}
	}
}

// Lookup returns the cached translation for (ctx, vpn) if present, charging
// the hit cost to the owning vCPU; the miss path cost is charged by the
// walker, not here.
func (t *TLB) Lookup(ctx uint32, vpn uint64) (PTE, bool) {
	_, s := t.find(tlbKey(ctx, vpn))
	if s == 0 {
		t.cpu.ChargeAdd(0, sim.CtrTLBMiss, 1)
		return PTE{}, false
	}
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBHit, sim.CtrTLBHit)
	e := &t.slots[s-1]
	return PTE{PN: e.pn, Flags: e.flags}, true
}

// Insert caches a translation, evicting a pseudo-random entry when full. The
// eviction choice draws from the owning vCPU's random stream.
func (t *TLB) Insert(ctx uint32, vpn uint64, pte PTE) {
	key := tlbKey(ctx, vpn)
	e := tlbEntry{vpn: vpn, pn: pte.PN, ctx: ctx, flags: pte.Flags}
	c, s := t.find(key)
	if s != 0 {
		t.slots[s-1] = e
		return
	}
	if len(t.slots) >= t.cap {
		t.evictOne()
		// The eviction may have shifted cells back into key's probe run.
		c, _ = t.find(key)
	}
	t.index[c] = int32(len(t.slots)) + 1
	t.slots = append(t.slots, e)
	t.order = append(t.order, key)
	t.countTag(ctx, 1)
}

// countTag adds d to ctx's live count, adding the tag on its first entry and
// dropping it (swap-remove) when its last entry goes.
func (t *TLB) countTag(ctx uint32, d int32) {
	for i := range t.tags {
		if g := &t.tags[i]; g.ctx == ctx {
			if g.live += d; g.live == 0 {
				last := len(t.tags) - 1
				t.tags[i] = t.tags[last]
				t.tags = t.tags[:last]
			}
			return
		}
	}
	t.tags = append(t.tags, tlbTag{ctx: ctx, live: d})
}

func (t *TLB) evictOne() {
	for len(t.order) > 0 {
		i := t.cpu.RNG.Intn(len(t.order))
		key := t.order[i]
		t.order[i] = t.order[len(t.order)-1]
		t.order = t.order[:len(t.order)-1]
		if _, s := t.find(key); s != 0 {
			t.remove(int(s - 1))
			return
		}
		// Stale order slot (entry was invalidated); retry.
	}
}

// remove drops the entry in slot i, moving the last slot into its place and
// re-pointing the moved entry's index cell.
func (t *TLB) remove(i int) {
	c, _ := t.find(t.slots[i].key())
	t.unindex(c)
	t.countTag(t.slots[i].ctx, -1)
	last := len(t.slots) - 1
	if i != last {
		t.slots[i] = t.slots[last]
		c, _ = t.find(t.slots[i].key())
		t.index[c] = int32(i) + 1
	}
	t.slots = t.slots[:last]
}

// unindex empties cell c by backward-shift deletion: each later cell of the
// probe run moves back into the gap when that keeps it reachable from its
// home cell, so there are no tombstones and churn never lengthens a probe.
func (t *TLB) unindex(c int) {
	mask := len(t.index) - 1
	for j := (c + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		s := t.index[j]
		// The entry at j may fill the gap unless its home lies cyclically
		// in (c, j].
		if (j-t.home(t.slots[s-1].key()))&mask >= (j-c)&mask {
			t.index[c] = s
			c = j
		}
	}
	t.index[c] = 0
}

// InvalidatePage drops the translation of vpn in every shadow context,
// charging the per-entry evict cost to the initiating vCPU, and reports how
// many entries were dropped; the VMM uses this when a page changes view
// (cloak transitions must be visible immediately in all contexts).
func (t *TLB) InvalidatePage(on *sim.VCPU, vpn uint64) int {
	dropped := 0
	// Probe downward: dropping a tag's last entry swap-removes the tag,
	// moving an already-probed tag into i.
	for i := len(t.tags) - 1; i >= 0; i-- {
		if _, s := t.find(tlbKey(t.tags[i].ctx, vpn)); s != 0 {
			t.remove(int(s - 1))
			on.ChargeAdd(on.World().Cost.TLBEvict, sim.CtrTLBEvict, 1)
			dropped++
		}
	}
	return dropped
}

// InvalidateRange drops the translations of every vpn in [base, base+pages)
// across all shadow contexts in a single pass over the TLB. Equivalent to
// calling InvalidatePage per vpn — same entries dropped, same per-entry evict
// charge — at one slot scan for the whole range, however many pages it spans.
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
	t.tags = t.tags[:0]
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBFlush, sim.CtrTLBFlush)
}

// Len reports the number of cached translations (for tests and stats).
func (t *TLB) Len() int { return len(t.slots) }
