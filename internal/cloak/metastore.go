package cloak

import "overshadow/internal/sim"

// MetaStore is the VMM's authoritative map from cloaked-page identity to the
// current (IV, H, version) record, fronted by a fixed-capacity cache.
//
// In the paper the working set of metadata lives in a VMM-private cache and
// the overflow is protected by a hash tree so it can spill to (untrusted)
// memory. Here every page has exactly one record; its cached bit says which
// of the two places it sits in, and crossing between cache and spill area is
// what costs cycles. Records themselves are always trustworthy — the point
// of the cache is the E10c ablation (sensitivity to cache size), not
// security.
type MetaStore struct {
	world  *sim.World
	cap    int
	recs   map[PageID]record
	cached int // records with the cached bit set

	// FIFO eviction order, consumed from head. Advancing head instead of
	// re-slicing keeps the backing array reclaimable: a long page-out sweep
	// used to pin every PageID ever enqueued (order = order[1:] retains the
	// full array), so the queue is compacted once the dead prefix dominates.
	// An entry whose record is gone or already spilled is stale and skipped.
	order []PageID
	head  int
}

// record is one page's metadata and whether it sits in the cache (true) or
// the hash-tree-protected spill area (false).
type record struct {
	meta   Meta
	cached bool
}

// NewMetaStore builds a store whose cache holds cacheCap records.
func NewMetaStore(world *sim.World, cacheCap int) *MetaStore {
	if cacheCap <= 0 {
		cacheCap = 1
	}
	return &MetaStore{world: world, cap: cacheCap, recs: make(map[PageID]record)}
}

// Put records meta as the current record for id, caching it.
func (s *MetaStore) Put(id PageID, meta Meta) {
	if !s.recs[id].cached {
		if s.cached >= s.cap {
			s.evictOne()
		}
		s.order = append(s.order, id)
		s.cached++
	}
	s.recs[id] = record{meta: meta, cached: true}
}

func (s *MetaStore) evictOne() {
	for s.head < len(s.order) {
		victim := s.order[s.head]
		s.head++
		if r := s.recs[victim]; r.cached {
			// Spill to the hash-tree-protected area.
			s.recs[victim] = record{meta: r.meta}
			s.cached--
			s.world.CPU().ChargeAdd(s.world.Cost.MetaCacheMiss, sim.CtrMetaCacheMiss, 0)
			s.compactOrder()
			return
		}
	}
	s.compactOrder()
}

// compactOrder drops the consumed prefix once it dominates the queue, so
// the FIFO's memory stays proportional to the live cache instead of the
// total eviction history. The threshold keeps amortized cost O(1) per
// eviction without changing eviction order at all.
func (s *MetaStore) compactOrder() {
	if s.head < 64 || s.head*2 < len(s.order) {
		return
	}
	n := copy(s.order, s.order[s.head:])
	// Zero the tail so the shrunk slice doesn't pin stale PageIDs.
	tail := s.order[n:]
	for i := range tail {
		tail[i] = PageID{}
	}
	s.order = s.order[:n]
	s.head = 0
}

// Get returns the current record for id, charging the cache hit or miss
// cost; a spilled record is promoted back into the cache. ok is false if the
// page has never been encrypted.
func (s *MetaStore) Get(id PageID) (Meta, bool) {
	r, ok := s.recs[id]
	if !ok {
		return Meta{}, false
	}
	if r.cached {
		s.world.CPU().ChargeCount(s.world.Cost.MetaCacheHit, sim.CtrMetaCacheHit)
		return r.meta, true
	}
	s.world.CPU().ChargeCount(s.world.Cost.MetaCacheMiss, sim.CtrMetaCacheMiss)
	s.Put(id, r.meta)
	return r.meta, true
}

// Version returns the recorded version for id without promotion side
// effects (0 if never encrypted). Used when encrypting to derive the next
// version.
func (s *MetaStore) Version(id PageID) uint64 { return s.recs[id].meta.Version }

// Delete forgets the record for id (resource teardown). Its FIFO entry goes
// stale and eviction skips it.
func (s *MetaStore) Delete(id PageID) {
	if s.recs[id].cached {
		s.cached--
	}
	delete(s.recs, id)
}

// DeleteDomain forgets every record belonging to a domain (domain
// teardown); the cloaked data becomes permanently unrecoverable.
func (s *MetaStore) DeleteDomain(d DomainID) {
	//overlint:allow determinism -- each step deletes one record and charges nothing, so any order leaves the same store
	for id := range s.recs {
		if id.Domain == d {
			s.Delete(id)
		}
	}
}

// DomainRecords reports how many records belong to domain d, cached or
// spilled. The quarantine residue checks use it to assert a contained domain
// leaks no metadata.
func (s *MetaStore) DomainRecords(d DomainID) int {
	n := 0
	//overlint:allow determinism -- a count is order-blind
	for id := range s.recs {
		if id.Domain == d {
			n++
		}
	}
	return n
}

// Len reports the total number of records, cached or spilled.
func (s *MetaStore) Len() int { return len(s.recs) }

// BytesPerRecord is the metadata space cost per cloaked page used by the E7
// space-overhead experiment: IV + hash + version + identity key.
const BytesPerRecord = IVSize + HashSize + 8 + 20

// SpaceOverheadBytes reports total metadata bytes currently held.
func (s *MetaStore) SpaceOverheadBytes() int { return s.Len() * BytesPerRecord }
