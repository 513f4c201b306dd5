package vmm

import (
	"errors"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
)

// The operations FuzzHypercalls decodes, one per leading byte (mod
// hcNumOps). Each reads its arguments from the bytes after it; a short
// input reads zeros.
const (
	hcCreate       = iota // bind a new or existing space to a fresh domain, park a thread in it
	hcRegister            // register a region: overlapping, empty or past mmu.MaxVPN
	hcUnregister          // unregister the region at a base VPN
	hcAlloc               // allocate a resource
	hcRelease             // release a resource's metadata
	hcClone               // copy a space the way fork does, then CloneInto the fresh copy
	hcDestroy             // destroy a handle's domain
	hcStale               // call a handle method, stale or not
	hcAppWrite            // map a page and write it from the app view
	hcKernelRead          // read a mapped page from the system view
	hcCorrupt             // flip a byte of a mapped frame, then read it from the app view
	hcRecycle             // unmap a page and recycle its frame
	hcDestroySpace        // destroy a space the way process exit does, keeping its handles
	hcNumOps
)

// The fuzzed machine has hcGuestPages of memory and maps VPNs below hcVPNs,
// so mapped pages often alias frames and registered regions; an input runs
// at most hcMaxOps operations.
const (
	hcGuestPages = 32
	hcVPNs       = 64
	hcMaxOps     = 96
)

// hcInput hands out the fuzz input a byte at a time, zeros once spent.
type hcInput []byte

func (in *hcInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// vpn draws a region base: mostly low (so regions overlap), sometimes at
// or past the page table's last VPN.
func (in *hcInput) vpn() uint64 {
	b := uint64(in.byte())
	switch in.byte() % 4 {
	case 0:
		return mmu.MaxVPN - b
	case 1:
		return mmu.MaxVPN + 1 + b
	default:
		return b % hcVPNs
	}
}

// pages draws a region length: empty, small, or large enough to run past
// mmu.MaxVPN from any base.
func (in *hcInput) pages() uint64 {
	b := uint64(in.byte())
	switch in.byte() % 4 {
	case 0:
		return 0
	case 1:
		return mmu.MaxVPN + 1 - b
	default:
		return 1 + b%16
	}
}

// hcRig is the fuzzed machine plus every handle, space and resource the
// sequence has made, and the domains it destroyed.
type hcRig struct {
	*testRig
	spaces    []*AddressSpace
	conns     []*DomainConn
	resources []cloak.ResourceID
	domains   []cloak.DomainID
	destroyed map[cloak.DomainID]bool
}

func (h *hcRig) conn(in *hcInput) *DomainConn {
	if len(h.conns) == 0 {
		return nil
	}
	return h.conns[int(in.byte())%len(h.conns)]
}

func (h *hcRig) space(in *hcInput) *AddressSpace {
	return h.spaces[int(in.byte())%len(h.spaces)]
}

func (h *hcRig) resource(in *hcInput) cloak.ResourceID {
	b := int(in.byte())
	if b%4 == 0 || len(h.resources) == 0 {
		return cloak.ResourceID(b / 4) // often 0: no resource
	}
	return h.resources[b%len(h.resources)]
}

// step decodes and runs one operation, returning its error.
func (h *hcRig) step(in *hcInput) error {
	v := h.v
	switch in.byte() % hcNumOps {
	case hcCreate:
		var as *AddressSpace
		if b := int(in.byte()); b < len(h.spaces) {
			as = h.spaces[b]
		} else {
			as = v.CreateAddressSpace(mmu.NewPageTable())
			h.spaces = append(h.spaces, as)
		}
		c, err := v.HCCreateDomain(as)
		if err != nil {
			return err
		}
		h.conns = append(h.conns, c)
		h.domains = append(h.domains, c.Domain())
		v.CreateThread(c.Domain()).EnterKernel(TrapSyscall)
	case hcRegister:
		c := h.conn(in)
		if c == nil {
			return nil
		}
		r := Region{BaseVPN: in.vpn(), Pages: in.pages(), Resource: h.resource(in),
			Cloaked: in.byte()%4 != 0, IndexOff: uint64(in.byte())}
		return c.RegisterRegion(r)
	case hcUnregister:
		if c := h.conn(in); c != nil {
			return c.UnregisterRegion(in.vpn())
		}
	case hcAlloc:
		if c := h.conn(in); c != nil {
			res, err := c.AllocResource()
			if err != nil {
				return err
			}
			h.resources = append(h.resources, res)
		}
	case hcRelease:
		if c := h.conn(in); c != nil {
			return c.ReleaseResource(h.resource(in), uint64(in.byte()%8))
		}
	case hcClone:
		c := h.conn(in)
		if c == nil {
			return nil
		}
		// The kernel's eager fork copy: each present page of the parent goes
		// through the direct map into a frame drawn from the input.
		child := v.CreateAddressSpace(mmu.NewPageTable())
		h.spaces = append(h.spaces, child)
		buf := make([]byte, mach.PageSize)
		var err error
		c.as.guestPT.Range(func(vpn uint64, pte mmu.PTE) bool {
			g := mach.GPPN(in.byte() % hcGuestPages)
			if err = v.PhysRead(mach.GPPN(pte.PN), 0, buf); err != nil {
				return false
			}
			if err = v.PhysWrite(g, 0, buf); err != nil {
				return false
			}
			h.mapGuest(child, vpn, g)
			return true
		})
		if err != nil {
			return err
		}
		_, cc, err := c.CloneInto(child)
		if err != nil {
			return err
		}
		h.conns = append(h.conns, cc)
	case hcDestroy:
		if c := h.conn(in); c != nil {
			if c.live() {
				h.destroyed[c.Domain()] = true
			}
			c.Destroy()
		}
	case hcStale:
		c := h.conn(in)
		if c == nil {
			return nil
		}
		stale := !c.live()
		var err error
		switch in.byte() % 4 {
		case 0:
			_, err = c.AllocResource()
		case 1:
			err = c.RecordIdentity([32]byte{in.byte()})
		case 2:
			if _, ok := c.Attest(h.resource(in), uint64(in.byte())); ok && stale {
				h.t.Fatal("a stale handle attested a page")
			}
		case 3:
			_, _, err = c.CloneInto(v.CreateAddressSpace(mmu.NewPageTable()))
		}
		if stale && err != nil && !errors.Is(err, ErrNoDomain) {
			h.t.Fatalf("a stale handle failed with %v, want ErrNoDomain", err)
		}
		return err
	case hcAppWrite:
		as := h.space(in)
		vpn := uint64(in.byte() % hcVPNs)
		h.mapGuest(as, vpn, mach.GPPN(in.byte()%hcGuestPages))
		v.InvalidateGuestMapping(as, vpn)
		data := []byte{in.byte(), in.byte(), in.byte(), in.byte()}
		return v.WriteVirt(as, ViewApp, mach.Addr(vpn*mach.PageSize), data, true)
	case hcKernelRead:
		as := h.space(in)
		vpn := uint64(in.byte() % hcVPNs)
		if !as.guestPT.Lookup(vpn).Present() {
			return nil
		}
		return v.ReadVirt(as, ViewSystem, mach.Addr(vpn*mach.PageSize), make([]byte, 8), false)
	case hcCorrupt:
		as := h.space(in)
		vpn := uint64(in.byte() % hcVPNs)
		pte := as.guestPT.Lookup(vpn)
		if !pte.Present() {
			return nil
		}
		off := int(in.byte()) % mach.PageSize
		b := make([]byte, 1)
		if err := v.PhysRead(mach.GPPN(pte.PN), off, b); err != nil {
			return err
		}
		b[0] ^= 1 | in.byte()
		if err := v.PhysWrite(mach.GPPN(pte.PN), off, b); err != nil {
			return err
		}
		return v.ReadVirt(as, ViewApp, mach.Addr(vpn*mach.PageSize), b, true)
	case hcDestroySpace:
		v.DestroyAddressSpace(h.space(in))
	case hcRecycle:
		as := h.space(in)
		vpn := uint64(in.byte() % hcVPNs)
		if pte := as.guestPT.Lookup(vpn); pte.Present() {
			as.guestPT.Unmap(vpn)
			v.InvalidateGuestMapping(as, vpn)
			v.NotifyFrameRecycled(mach.GPPN(pte.PN))
		}
	}
	return nil
}

// typedErr reports whether err is one of the hypercall surface's typed
// outcomes: an errors.go sentinel or a *RegionError, *ResourceFault or
// *SecViolation.
func typedErr(err error) bool {
	for _, s := range []error{ErrNoDomain, ErrDomainBound, ErrAlreadyMeasured,
		ErrNoRegion, ErrRegionOverlap, ErrNoResource, ErrRegionRange} {
		if errors.Is(err, s) {
			return true
		}
	}
	var re *RegionError
	var rf *ResourceFault
	var sv *SecViolation
	return errors.As(err, &re) || errors.As(err, &rf) || errors.As(err, &sv)
}

// FuzzHypercalls decodes bytes into a sequence of hypercall-surface
// operations on a small machine, under a domain and region quota the first
// byte draws. After every operation nothing has panicked, every error is a
// typed outcome, every destroyed or quarantined domain holds no registered
// page and no metadata record, and a quarantined domain's threads hold no
// live saved context.
func FuzzHypercalls(f *testing.F) {
	// seq builds a seed from a quota byte and whole operations.
	seq := func(quota byte, ops ...[]byte) []byte {
		out := []byte{quota}
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	seeds := [][]byte{
		{},
		// Write, read from the kernel, then corrupt a page into a quarantine.
		seq(0, []byte{hcCreate, 0}, []byte{hcAlloc, 0},
			[]byte{hcRegister, 0, 10, 2, 4, 2, 1, 1, 0},
			[]byte{hcAppWrite, 0, 12, 3, 'a', 'b', 'c', 'd'},
			[]byte{hcKernelRead, 0, 12},
			[]byte{hcAppWrite, 0, 13, 5, 'e', 'f', 'g', 'h'},
			[]byte{hcCorrupt, 0, 13, 7, 2}),
		// Overlapping, empty, past-MaxVPN and resource-less regions, then
		// unregister a region and a base that starts none.
		seq(0, []byte{hcCreate, 0}, []byte{hcAlloc, 0},
			[]byte{hcRegister, 0, 4, 2, 8, 2, 1, 1, 0},
			[]byte{hcRegister, 0, 6, 2, 8, 2, 1, 1, 0},
			[]byte{hcRegister, 0, 20, 2, 0, 0, 1, 1, 0},
			[]byte{hcRegister, 0, 3, 0, 4, 2, 1, 1, 0},
			[]byte{hcRegister, 0, 3, 1, 1, 2, 1, 1, 0},
			[]byte{hcRegister, 0, 0, 2, 9, 1, 1, 1, 0},
			[]byte{hcRegister, 0, 30, 2, 2, 2, 0, 1, 0},
			[]byte{hcUnregister, 0, 4, 2}, []byte{hcUnregister, 0, 5, 2}),
		// Fork a space with written pages, destroy the domain through the
		// child's handle, then use both stale handles.
		seq(0, []byte{hcCreate, 0}, []byte{hcAlloc, 0},
			[]byte{hcRegister, 0, 10, 2, 4, 2, 1, 1, 0},
			[]byte{hcAppWrite, 0, 10, 3, 1, 2, 3, 4},
			[]byte{hcAppWrite, 0, 11, 4, 5, 6, 7, 8},
			[]byte{hcClone, 0, 20, 21},
			[]byte{hcAppWrite, 1, 10, 20, 9, 9, 9, 9},
			[]byte{hcDestroy, 1},
			[]byte{hcStale, 0, 0}, []byte{hcStale, 1, 1, 7}, []byte{hcStale, 0, 2, 1, 0},
			[]byte{hcStale, 1, 3}, []byte{hcRelease, 0, 1, 2}, []byte{hcAlloc, 1}),
		// Two domains under a quota of two, each with at most two regions,
		// alias one frame; the frame is recycled and reused.
		seq(2+8*2, []byte{hcCreate, 0}, []byte{hcCreate, 9}, []byte{hcCreate, 9},
			[]byte{hcAlloc, 0}, []byte{hcAlloc, 1},
			[]byte{hcRegister, 0, 10, 2, 2, 2, 1, 1, 0},
			[]byte{hcRegister, 1, 10, 2, 2, 2, 2, 1, 0},
			[]byte{hcRegister, 0, 30, 2, 2, 2, 1, 1, 0},
			[]byte{hcRegister, 0, 40, 2, 2, 2, 1, 1, 0},
			[]byte{hcAppWrite, 0, 10, 6, 1, 1, 1, 1},
			[]byte{hcKernelRead, 0, 10},
			[]byte{hcAppWrite, 1, 10, 6, 2, 2, 2, 2},
			[]byte{hcRecycle, 0, 10},
			[]byte{hcAppWrite, 0, 10, 6, 3, 3, 3, 3}),
		// The kernel destroys the only space before the domain, then the
		// stale handle measures again and the dead space takes a write.
		seq(0, []byte{hcCreate, 0}, []byte{hcAlloc, 0},
			[]byte{hcRegister, 0, 10, 2, 4, 2, 1, 1, 0},
			[]byte{hcAppWrite, 0, 10, 3, 1, 2, 3, 4},
			[]byte{hcStale, 0, 1, 1},
			[]byte{hcDestroySpace, 0}, []byte{hcDestroy, 0},
			[]byte{hcStale, 0, 1, 2},
			[]byte{hcAppWrite, 0, 11, 4, 5, 6, 7, 8}),
		// A forked child's space goes first; the parent's handle destroys
		// the domain, then the child's handle and space are used.
		seq(0, []byte{hcCreate, 0}, []byte{hcAlloc, 0},
			[]byte{hcRegister, 0, 10, 2, 4, 2, 1, 1, 0},
			[]byte{hcAppWrite, 0, 10, 3, 1, 2, 3, 4},
			[]byte{hcClone, 0, 20},
			[]byte{hcDestroySpace, 1}, []byte{hcDestroy, 0},
			[]byte{hcStale, 1, 0},
			[]byte{hcAppWrite, 1, 10, 21, 9, 9, 9, 9}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := hcInput(data)
		quota := in.byte()
		r := newSizedRig(t, hcGuestPages, Options{Quota: Quota{
			MaxDomains:          int(quota % 8),
			MaxRegionsPerDomain: int(quota / 8 % 8),
		}})
		h := &hcRig{testRig: r, spaces: []*AddressSpace{r.as},
			destroyed: make(map[cloak.DomainID]bool)}
		for op := 0; op < hcMaxOps && len(in) > 0; op++ {
			if err := h.step(&in); err != nil && !typedErr(err) {
				t.Fatalf("op %d: untyped error %v", op, err)
			}
			for _, d := range h.domains {
				quarantined := r.v.Quarantined(d)
				if !quarantined && !h.destroyed[d] {
					continue
				}
				pages, metas, ctcs := r.v.QuarantineResidue(d)
				if pages != 0 || metas != 0 || quarantined && ctcs != 0 {
					t.Fatalf("op %d: dead domain %d (quarantined %v) holds %d pages, %d metadata records, %d live CTCs",
						op, d, quarantined, pages, metas, ctcs)
				}
			}
		}
	})
}
