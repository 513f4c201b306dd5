// Package vmm implements the trusted hypervisor at the heart of Overshadow:
// shadow page tables kept coherent with guest page tables, the
// multi-shadowing mechanism that gives different execution contexts
// different views of the same guest-physical page, the memory-cloaking state
// machine that encrypts pages on kernel access and decrypt-verifies them on
// application access, cloaked thread contexts (secure control transfer), and
// the hypercall interface used by the in-application shim.
//
// Everything in this package is inside the trusted computing base. The guest
// kernel (package guestos) interacts with it only through the narrow
// "hardware-ish" surface: translations, physical accesses, guest-PTE change
// notifications, and trap entry/exit.
package vmm

import (
	"slices"
	"sort"

	"overshadow/internal/cloak"
	"overshadow/internal/mmu"
)

// View selects which shadow of an address space a memory access goes
// through. This is the multi-shadowing axis: the same guest-virtual address
// in the same address space translates differently depending on the view.
type View uint8

// The two views of the paper's design.
const (
	// ViewApp is the application's own view: cloaked pages appear as
	// plaintext. Only the owning protection domain runs in this view.
	ViewApp View = iota
	// ViewSystem is everyone else's view — most importantly the guest
	// kernel's: cloaked pages appear only as ciphertext.
	ViewSystem

	numViews
)

// String implements fmt.Stringer.
func (v View) String() string {
	if v == ViewApp {
		return "app"
	}
	return "system"
}

// ASID identifies a guest address space.
type ASID uint32

// Region describes one registered virtual range of an address space, as
// declared by the shim via hypercall. Cloaked regions carry the resource
// identity that binds page contents to their position.
type Region struct {
	BaseVPN  uint64
	Pages    uint64
	Resource cloak.ResourceID
	Cloaked  bool
	// IndexOff shifts page identity: the page at BaseVPN has resource index
	// IndexOff. File windows use it to map a window onto a file offset.
	IndexOff uint64
	// Domain, when non-zero, overrides the address space's domain for this
	// region's page identity. Cloaked files live in stable per-file vault
	// domains so their contents survive process lifetimes; such regions are
	// shared rather than cloned across fork.
	Domain cloak.DomainID
}

// Contains reports whether vpn falls inside the region.
func (r Region) Contains(vpn uint64) bool {
	return vpn >= r.BaseVPN && vpn < r.BaseVPN+r.Pages
}

// AddressSpace is the VMM's bookkeeping for one guest address space: the
// guest page table it shadows, one shadow page table per (vCPU, view), and
// the registered cloaked/uncloaked regions.
//
// Shadows are replicated per vCPU rather than shared: each CPU demand-fills
// its own shadow from the guest page table, exactly like hardware per-CPU
// paging structures. The price is that invalidations must sweep every CPU's
// replica (see the VMM's dropShadows* helpers and the TLB-shootdown cost
// model).
type AddressSpace struct {
	id      ASID
	guestPT *mmu.PageTable
	domain  cloak.DomainID // 0 while no cloaked app is attached
	// shadows[cpu][view] is that vCPU's shadow page table for the view.
	shadows [][numViews]*shadowTable
	// ctxIDs[view] tags TLB entries filled from that view's shadow. The IDs
	// are shared across vCPUs: TLBs are per-vCPU, so the same context tag can
	// never collide between CPUs.
	ctxIDs  [numViews]uint32
	regions []Region // sorted by BaseVPN
}

// shadow returns the shadow page table for (cpu, view).
func (as *AddressSpace) shadow(cpu int, view View) *shadowTable {
	return as.shadows[cpu][view]
}

// shadowTable is one shadow page table plus a backmap from machine page
// number to the VPNs that map it. Map, Unmap and Clear are the table's only
// mutators and keep the backmap current, so finding every mapping of a frame
// (a cloak transition must drop them all) is one lookup per table instead of
// a walk of the whole table. The backmap moves host time only: a frame's
// VPNs are kept ascending, the order a walk of the table visits them.
type shadowTable struct {
	pt   mmu.PageTable
	back map[uint64]mappers // PN -> VPNs mapping it; no entry once none do
}

// mappers holds the VPNs that map one frame, ascending: the lowest inline,
// the rest in more. A frame usually has one mapper per table, so more stays
// empty and linking it allocates nothing.
type mappers struct {
	first uint64
	more  []uint64 // ascending, each above first
}

func newShadowTable() *shadowTable {
	return &shadowTable{back: make(map[uint64]mappers)}
}

// Lookup returns the PTE for vpn.
func (s *shadowTable) Lookup(vpn uint64) mmu.PTE { return s.pt.Lookup(vpn) }

// Map installs (or replaces) the entry for vpn.
func (s *shadowTable) Map(vpn uint64, pte mmu.PTE) {
	old := s.pt.Lookup(vpn)
	s.pt.Map(vpn, pte)
	if old.Present() && pte.Present() && old.PN == pte.PN {
		return // a change of flags only
	}
	if old.Present() {
		s.unlink(old.PN, vpn)
	}
	if pte.Present() {
		s.link(pte.PN, vpn)
	}
}

// Unmap clears the entry for vpn; it is a no-op if nothing was mapped.
func (s *shadowTable) Unmap(vpn uint64) {
	if old := s.pt.Lookup(vpn); old.Present() {
		s.unlink(old.PN, vpn)
	}
	s.pt.Unmap(vpn)
}

// Clear removes every entry.
func (s *shadowTable) Clear() {
	s.pt.Clear()
	clear(s.back)
}

// firstMapper returns the lowest VPN that maps pn.
func (s *shadowTable) firstMapper(pn uint64) (uint64, bool) {
	m, ok := s.back[pn]
	return m.first, ok
}

func (s *shadowTable) link(pn, vpn uint64) {
	m, ok := s.back[pn]
	switch {
	case !ok:
		m.first = vpn
	case vpn < m.first:
		m.more = slices.Insert(m.more, 0, m.first)
		m.first = vpn
	default:
		i, _ := slices.BinarySearch(m.more, vpn)
		m.more = slices.Insert(m.more, i, vpn)
	}
	s.back[pn] = m
}

func (s *shadowTable) unlink(pn, vpn uint64) {
	m := s.back[pn]
	switch {
	case vpn != m.first:
		if i, ok := slices.BinarySearch(m.more, vpn); ok {
			m.more = slices.Delete(m.more, i, i+1)
		}
	case len(m.more) == 0:
		delete(s.back, pn)
		return
	default:
		m.first = m.more[0]
		m.more = slices.Delete(m.more, 0, 1)
	}
	s.back[pn] = m
}

// ID returns the address-space identifier.
func (as *AddressSpace) ID() ASID { return as.id }

// Domain returns the protection domain bound to this address space
// (0 = none).
func (as *AddressSpace) Domain() cloak.DomainID { return as.domain }

// GuestPT returns the guest page table being shadowed. The guest kernel
// writes it; the VMM only reads it.
func (as *AddressSpace) GuestPT() *mmu.PageTable { return as.guestPT }

// regionAt returns the region containing vpn, or nil.
func (as *AddressSpace) regionAt(vpn uint64) *Region {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].BaseVPN+as.regions[i].Pages > vpn
	})
	if i < len(as.regions) && as.regions[i].Contains(vpn) {
		return &as.regions[i]
	}
	return nil
}

// findRegion returns the index of the region starting exactly at baseVPN
// (the unregister key), using the sorted-by-BaseVPN invariant.
func (as *AddressSpace) findRegion(baseVPN uint64) (int, bool) {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].BaseVPN >= baseVPN
	})
	if i < len(as.regions) && as.regions[i].BaseVPN == baseVPN {
		return i, true
	}
	return 0, false
}

// addRegion inserts a region at its sorted position, rejecting overlaps.
// Because the slice is kept sorted and regions never overlap, only the two
// neighbors of the insertion point can conflict — no full scan needed.
func (as *AddressSpace) addRegion(r Region) error {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].BaseVPN >= r.BaseVPN
	})
	if i > 0 {
		if q := as.regions[i-1]; q.BaseVPN+q.Pages > r.BaseVPN {
			return &RegionError{Op: "register", Region: r, Conflict: &q, Err: ErrRegionOverlap}
		}
	}
	if i < len(as.regions) {
		if q := as.regions[i]; q.BaseVPN < r.BaseVPN+r.Pages {
			return &RegionError{Op: "register", Region: r, Conflict: &q, Err: ErrRegionOverlap}
		}
	}
	as.regions = append(as.regions, Region{})
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
	return nil
}

// pageIdentity derives the stable cloaked identity of vpn within region r.
// asDomain is the accessing address space's domain, used unless the region
// carries a vault-domain override.
func pageIdentity(asDomain cloak.DomainID, r *Region, vpn uint64) cloak.PageID {
	d := asDomain
	if r.Domain != 0 {
		d = r.Domain
	}
	return cloak.PageID{
		Domain:   d,
		Resource: r.Resource,
		Index:    r.IndexOff + (vpn - r.BaseVPN),
	}
}
