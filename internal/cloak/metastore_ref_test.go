package cloak

import (
	"fmt"
	"testing"

	"overshadow/internal/sim"
)

// refStore is the two-map design MetaStore replaced, kept as a test oracle:
// a cache map and a backing map, where a promoted record stays in backing
// too, plus a one-entry MRU slot per vCPU in front of the cache. It differs
// from that design in one line. Put there refreshed only the executing
// vCPU's slot, so another vCPU's slot could keep the superseded record and
// serve it to a later Get or Version on that vCPU. Here Put drops id's slot
// on every vCPU first, which is the behaviour a cache in front of an
// authoritative map promises. The FIFO is never compacted here: compaction
// changes memory, not eviction order.
type refStore struct {
	world   *sim.World
	cap     int
	cache   map[PageID]Meta
	backing map[PageID]Meta
	order   []PageID
	head    int
	mru     []refSlot
}

type refSlot struct {
	id   PageID
	meta Meta
	ok   bool
}

func newRefStore(world *sim.World, cacheCap int) *refStore {
	if cacheCap <= 0 {
		cacheCap = 1
	}
	return &refStore{
		world:   world,
		cap:     cacheCap,
		cache:   make(map[PageID]Meta),
		backing: make(map[PageID]Meta),
		mru:     make([]refSlot, world.NumVCPUs()),
	}
}

func (s *refStore) slot() *refSlot { return &s.mru[s.world.CPU().ID()] }

func (s *refStore) dropMRU(id PageID) {
	for i := range s.mru {
		if s.mru[i].ok && s.mru[i].id == id {
			s.mru[i].ok = false
		}
	}
}

func (s *refStore) Put(id PageID, meta Meta) {
	if _, ok := s.cache[id]; !ok {
		if len(s.cache) >= s.cap {
			s.evictOne()
		}
		s.order = append(s.order, id)
	}
	s.cache[id] = meta
	s.dropMRU(id)
	*s.slot() = refSlot{id: id, meta: meta, ok: true}
}

func (s *refStore) evictOne() {
	for s.head < len(s.order) {
		victim := s.order[s.head]
		s.head++
		if m, ok := s.cache[victim]; ok {
			s.backing[victim] = m
			delete(s.cache, victim)
			s.dropMRU(victim)
			s.world.CPU().ChargeAdd(s.world.Cost.MetaCacheMiss, sim.CtrMetaCacheMiss, 0)
			return
		}
	}
}

func (s *refStore) Get(id PageID) (Meta, bool) {
	c := s.world.CPU()
	sl := s.slot()
	if sl.ok && id == sl.id {
		c.ChargeCount(s.world.Cost.MetaCacheHit, sim.CtrMetaCacheHit)
		return sl.meta, true
	}
	if m, ok := s.cache[id]; ok {
		c.ChargeCount(s.world.Cost.MetaCacheHit, sim.CtrMetaCacheHit)
		*sl = refSlot{id: id, meta: m, ok: true}
		return m, true
	}
	if m, ok := s.backing[id]; ok {
		c.ChargeCount(s.world.Cost.MetaCacheMiss, sim.CtrMetaCacheMiss)
		s.Put(id, m)
		return m, true
	}
	return Meta{}, false
}

func (s *refStore) Version(id PageID) uint64 {
	if sl := s.slot(); sl.ok && id == sl.id {
		return sl.meta.Version
	}
	if m, ok := s.cache[id]; ok {
		return m.Version
	}
	if m, ok := s.backing[id]; ok {
		return m.Version
	}
	return 0
}

func (s *refStore) Delete(id PageID) {
	delete(s.cache, id)
	delete(s.backing, id)
	s.dropMRU(id)
}

func (s *refStore) DeleteDomain(d DomainID) {
	for id := range s.cache {
		if id.Domain == d {
			delete(s.cache, id)
		}
	}
	for id := range s.backing {
		if id.Domain == d {
			delete(s.backing, id)
		}
	}
	for i := range s.mru {
		if s.mru[i].ok && s.mru[i].id.Domain == d {
			s.mru[i].ok = false
		}
	}
}

func (s *refStore) DomainRecords(d DomainID) int {
	n := 0
	for id := range s.backing {
		if id.Domain == d {
			n++
		}
	}
	for id := range s.cache {
		if id.Domain != d {
			continue
		}
		if _, dup := s.backing[id]; !dup {
			n++
		}
	}
	return n
}

func (s *refStore) Len() int {
	n := len(s.backing)
	for id := range s.cache {
		if _, dup := s.backing[id]; !dup {
			n++
		}
	}
	return n
}

// TestMetaStoreMatchesReference drives MetaStore and the two-map reference
// through the same random operation stream over a small id space, on
// identically seeded worlds with a random vCPU active per operation. After
// every step both must agree on the operation's result, the clock, the
// metadata-cache hit and miss counters, Len and every domain's record count:
// the single record map charges and evicts exactly as the two maps did.
func TestMetaStoreMatchesReference(t *testing.T) {
	const (
		steps   = 20000
		domains = 3
	)
	for _, cacheCap := range []int{1, 4, 16} {
		for _, vcpus := range []int{1, 4} {
			t.Run(fmt.Sprintf("cap%d/vcpus%d", cacheCap, vcpus), func(t *testing.T) {
				w := sim.NewWorldN(sim.DefaultCostModel(), 1, vcpus)
				rw := sim.NewWorldN(sim.DefaultCostModel(), 1, vcpus)
				s := NewMetaStore(w, cacheCap)
				ref := newRefStore(rw, cacheCap)
				rng := sim.NewRNG(uint64(cacheCap*10 + vcpus))
				for step := 0; step < steps; step++ {
					cpu := rng.Intn(vcpus)
					w.Activate(w.VCPUs()[cpu])
					rw.Activate(rw.VCPUs()[cpu])
					id := PageID{
						Domain:   DomainID(1 + rng.Intn(domains)),
						Resource: ResourceID(1 + rng.Intn(2)),
						Index:    uint64(rng.Intn(4)),
					}
					var op string
					switch r := rng.Intn(100); {
					case r < 35:
						op = "Put"
						var m Meta
						rng.Bytes(m.IV[:])
						m.Version = rng.Uint64()
						s.Put(id, m)
						ref.Put(id, m)
					case r < 70:
						op = "Get"
						got, ok := s.Get(id)
						want, wantOK := ref.Get(id)
						if got != want || ok != wantOK {
							t.Fatalf("step %d: Get(%v) on vCPU %d = %v,%v; reference %v,%v",
								step, id, cpu, got.Version, ok, want.Version, wantOK)
						}
					case r < 85:
						op = "Version"
						if got, want := s.Version(id), ref.Version(id); got != want {
							t.Fatalf("step %d: Version(%v) on vCPU %d = %d; reference %d", step, id, cpu, got, want)
						}
					case r < 98:
						op = "Delete"
						s.Delete(id)
						ref.Delete(id)
					default:
						op = "DeleteDomain"
						s.DeleteDomain(id.Domain)
						ref.DeleteDomain(id.Domain)
					}
					if w.Now() != rw.Now() {
						t.Fatalf("step %d (%s %v): clock %d; reference %d", step, op, id, w.Now(), rw.Now())
					}
					for _, ctr := range []sim.Counter{sim.CtrMetaCacheHit, sim.CtrMetaCacheMiss} {
						if got, want := w.Stats.Get(ctr), rw.Stats.Get(ctr); got != want {
							t.Fatalf("step %d (%s %v): %s = %d; reference %d", step, op, id, ctr, got, want)
						}
					}
					if s.Len() != ref.Len() {
						t.Fatalf("step %d (%s %v): Len %d; reference %d", step, op, id, s.Len(), ref.Len())
					}
					for d := DomainID(1); d <= domains; d++ {
						if got, want := s.DomainRecords(d), ref.DomainRecords(d); got != want {
							t.Fatalf("step %d (%s %v): DomainRecords(%d) = %d; reference %d", step, op, id, d, got, want)
						}
					}
				}
				if w.Stats.Get(sim.CtrMetaCacheMiss) == 0 || w.Stats.Get(sim.CtrMetaCacheHit) == 0 {
					t.Fatalf("stream never both hit and missed the cache (hits %d, misses %d)",
						w.Stats.Get(sim.CtrMetaCacheHit), w.Stats.Get(sim.CtrMetaCacheMiss))
				}
			})
		}
	}
}
