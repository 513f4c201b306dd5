package mmu

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"testing"

	"overshadow/internal/sim"
)

// TestTLBAgainstReferenceModel drives random operation sequences against
// the TLB and a trivially correct reference (a map with no capacity
// limit), checking the TLB's soundness invariant: every hit must return
// exactly what the reference holds (misses are always allowed — capacity
// eviction — but wrong translations never are). Each step draws an
// operation from [0, ops): the top value invalidates a context, the next a
// page, and the rest split evenly between inserts and lookups. The second
// configuration draws from 4096 keys and rarely invalidates, so a 256-entry
// TLB stays full, eviction runs on nearly every insert, and probe runs wrap
// past the end of the key index. The third is the pager's pattern: every
// step also pages in a fresh VPN under a drawn context and pages out (drops
// in every context) the VPN lag steps older, so the TLB stays below capacity
// while page invalidations run on every step. After every step the index
// must find each live slot from its key and hold exactly Len() occupied
// cells, and the per-context counts must match the slots (checkTLBTags).
func TestTLBAgainstReferenceModel(t *testing.T) {
	for _, cfg := range []struct{ capacity, ctxs, vpns, ops, lag int }{
		{32, 4, 64, 10, 0},
		{256, 16, 256, 200, 0},
		{256, 4, 48, 10, 48},
	} {
		for seed := uint64(1); seed <= 6; seed++ {
			runTLBModel(t, seed, cfg.capacity, cfg.ctxs, cfg.vpns, cfg.ops, cfg.lag)
		}
	}
}

func runTLBModel(t *testing.T, seed uint64, capacity, ctxs, vpns, ops, lag int) {
	t.Helper()
	w := sim.NewWorld(sim.DefaultCostModel(), seed)
	tlb := NewTLB(w.Boot(), capacity)
	rng := sim.NewRNG(seed * 7777)
	type key struct {
		ctx uint32
		vpn uint64
	}
	ref := map[key]PTE{}
	insert := func(ctx uint32, vpn uint64) {
		pte := PTE{PN: rng.Uint64() % 1024, Flags: FlagPresent | Flags(rng.Intn(4))<<1}
		tlb.Insert(ctx, vpn, pte)
		ref[key{ctx, vpn}] = pte
	}
	invalidatePage := func(vpn uint64) {
		tlb.InvalidatePage(w.Boot(), vpn)
		for kk := range ref {
			if kk.vpn == vpn {
				delete(ref, kk)
			}
		}
	}

	for step := 0; step < 5000; step++ {
		ctx := uint32(rng.Intn(ctxs))
		vpn := uint64(rng.Intn(vpns))
		if lag > 0 {
			// The pager's sweep: the drawn operation below then works on the
			// lag resident VPNs.
			insert(ctx, uint64(step+lag))
			invalidatePage(uint64(step))
			vpn += uint64(step + 1)
		}
		k := key{ctx, vpn}
		switch op := rng.Intn(ops); {
		case op < (ops-2)/2: // insert
			insert(ctx, vpn)
		case op < ops-2: // lookup; a miss is always sound
			if got, hit := tlb.Lookup(ctx, vpn); hit {
				want, ok := ref[k]
				if !ok {
					t.Fatalf("cap %d seed %d step %d: hit on never-inserted (ctx %d vpn %d)", capacity, seed, step, ctx, vpn)
				}
				if got != want {
					t.Fatalf("cap %d seed %d step %d: stale translation %v, want %v", capacity, seed, step, got, want)
				}
			}
		case op == ops-2: // invalidate page everywhere
			invalidatePage(vpn)
		default: // invalidate a whole context
			tlb.InvalidateContext(w.Boot(), ctx)
			for kk := range ref {
				if kk.ctx == ctx {
					delete(ref, kk)
				}
			}
		}
		if tlb.Len() > capacity {
			t.Fatalf("cap %d seed %d step %d: TLB over capacity: %d", capacity, seed, step, tlb.Len())
		}
		if lag > 0 && tlb.Len() == capacity {
			t.Fatalf("cap %d seed %d step %d: the sweep filled the TLB", capacity, seed, step)
		}
		occupied := 0
		for _, s := range tlb.index {
			if s != 0 {
				occupied++
			}
		}
		if occupied != tlb.Len() {
			t.Fatalf("cap %d seed %d step %d: %d occupied index cells, %d live slots", capacity, seed, step, occupied, tlb.Len())
		}
		for i := range tlb.slots {
			if _, s := tlb.find(tlb.slots[i].key()); int(s) != i+1 {
				t.Fatalf("cap %d seed %d step %d: slot %d's key finds cell content %d", capacity, seed, step, i, s)
			}
		}
		checkTLBTags(t, tlb, step)
	}
}

// checkTLBTags fails unless tlb.tags names each context tag of a live slot
// exactly once, with that tag's slot count, and no tag without live slots.
func checkTLBTags(t *testing.T, tlb *TLB, step int) {
	t.Helper()
	want := map[uint32]int32{}
	for i := range tlb.slots {
		want[tlb.slots[i].ctx]++
	}
	got := map[uint32]int32{}
	for _, g := range tlb.tags {
		if _, dup := got[g.ctx]; dup || g.live == 0 {
			t.Fatalf("step %d: tag list %v repeats a tag or keeps a zero count", step, tlb.tags)
		}
		got[g.ctx] = g.live
	}
	if !maps.Equal(got, want) {
		t.Fatalf("step %d: tag counts %v, slots hold %v", step, got, want)
	}
}

// TestTLBReplacementDigest pins the TLB's exact behaviour, which the
// reference-model test above does not: which entry random replacement
// evicts, how many of the owner's RNG draws stale order slots consume, and
// every charge. A seeded mix of all six operations runs at capacity 32 on a
// 2-vCPU world, with invalidations initiated from both vCPUs, and every
// observable result is folded into one FNV-64 digest. A rewrite of the TLB's
// storage must leave the digest unchanged.
func TestTLBReplacementDigest(t *testing.T) {
	const want = uint64(0x672a532aa4881a76)
	w := sim.NewWorldN(sim.DefaultCostModel(), 3, 2)
	owner := w.VCPUs()[0]
	tlb := NewTLB(owner, 32)
	rng := sim.NewRNG(2024)
	h := fnv.New64a()
	fold := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for step := 0; step < 20000; step++ {
		ctx := uint32(rng.Intn(4))
		vpn := uint64(rng.Intn(64))
		on := w.VCPUs()[rng.Intn(2)]
		switch op := rng.Intn(100); {
		case op < 40:
			tlb.Insert(ctx, vpn, PTE{PN: rng.Uint64() % 1024, Flags: FlagPresent | Flags(rng.Intn(4))<<1})
		case op < 80:
			pte, hit := tlb.Lookup(ctx, vpn)
			if hit {
				fold(1)
			} else {
				fold(0)
			}
			fold(pte.PN)
			fold(uint64(pte.Flags))
		case op < 88:
			fold(uint64(tlb.InvalidatePage(on, vpn)))
		case op < 94:
			fold(uint64(tlb.InvalidateRange(on, vpn, uint64(1+rng.Intn(8)))))
		case op < 99:
			fold(uint64(tlb.InvalidateContext(on, ctx)))
		default:
			tlb.Flush()
		}
		fold(uint64(tlb.Len()))
		fold(uint64(w.Now()))
		checkTLBTags(t, tlb, step)
	}
	fold(owner.RNG.Uint64())
	if got := h.Sum64(); got != want {
		t.Fatalf("TLB behaviour digest = %#x, want %#x", got, want)
	}
}
