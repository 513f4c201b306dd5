package cloak

import (
	"testing"

	"overshadow/internal/sim"
)

func msWorld() *sim.World { return sim.NewWorld(sim.DefaultCostModel(), 1) }

func msID(i uint64) PageID {
	return PageID{Domain: 1, Resource: 1, Index: i}
}

// TestEvictOrderStableUnderCompaction pins the satellite fix: switching the
// FIFO from slice-shift to head-index-with-compaction must keep eviction
// order byte-identical. The reference order for strict FIFO with cacheCap C and
// sequential distinct inserts is insertion order.
func TestEvictOrderStableUnderCompaction(t *testing.T) {
	const cacheCap = 8
	s := NewMetaStore(msWorld(), cacheCap)
	const total = 4096 // far past every compaction threshold
	for i := uint64(0); i < total; i++ {
		s.Put(msID(i), Meta{Version: i + 1})
		// Strict FIFO: after inserting i, the cache holds exactly the last
		// `cacheCap` ids; everything older has spilled.
		if i >= cacheCap {
			oldest := i - cacheCap // spilled on this insert
			r, ok := s.recs[msID(oldest)]
			if !ok {
				t.Fatalf("id %d lost after eviction", oldest)
			}
			if r.cached {
				t.Fatalf("id %d still cached after %d inserts (eviction order changed)", oldest, i+1)
			}
		}
		if s.cached > cacheCap {
			t.Fatalf("cache size %d exceeds cacheCap %d", s.cached, cacheCap)
		}
	}
	// The memory-leak half: the FIFO must not retain the full insert
	// history (the old slice-shift kept the whole backing array alive).
	if len(s.order) > 4*cacheCap+64 {
		t.Fatalf("order queue holds %d entries for a cacheCap-%d cache: compaction not working", len(s.order), cacheCap)
	}
	// All records remain reachable.
	if s.Len() != total {
		t.Fatalf("Len = %d, want %d", s.Len(), total)
	}
}

// TestEvictSkipsStaleOrderEntries: deleting a cached id leaves a stale
// queue entry; eviction must skip it (not charge for it) and evict the next
// live victim, with head advancing past the carcass.
func TestEvictSkipsStaleOrderEntries(t *testing.T) {
	s := NewMetaStore(msWorld(), 2)
	s.Put(msID(0), Meta{Version: 1})
	s.Put(msID(1), Meta{Version: 1})
	s.Delete(msID(0)) // stale order entry for id 0
	s.Put(msID(2), Meta{Version: 1})
	s.Put(msID(3), Meta{Version: 1}) // forces eviction: must pick id 1, not id 0
	if r, ok := s.recs[msID(1)]; !ok || r.cached {
		t.Fatalf("id 1 should have spilled (present %v, cached %v)", ok, r.cached)
	}
	if _, ok := s.recs[msID(0)]; ok {
		t.Fatal("deleted id 0 must not reappear")
	}
	if s.cached != 2 {
		t.Fatalf("cached records = %d, want 2", s.cached)
	}
}
