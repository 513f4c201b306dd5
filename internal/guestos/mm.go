package guestos

import (
	"overshadow/internal/fault"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// VMAKind classifies virtual memory areas.
type VMAKind uint8

// VMA kinds.
const (
	VMAHeap VMAKind = iota
	VMAStack
	VMAAnon
	VMAFile
	VMAScratch // the shim's uncloaked marshalling window
	VMAShm     // named shared-memory object (see shm.go)
)

// String implements fmt.Stringer.
func (k VMAKind) String() string {
	switch k {
	case VMAHeap:
		return "heap"
	case VMAStack:
		return "stack"
	case VMAAnon:
		return "anon"
	case VMAFile:
		return "file"
	case VMAScratch:
		return "scratch"
	case VMAShm:
		return "shm"
	}
	return "?"
}

// VMA is one virtual memory area of a process.
type VMA struct {
	Base     uint64 // first VPN
	Pages    uint64
	Kind     VMAKind
	Writable bool
	// File mappings.
	Ino     Ino
	FileOff uint64 // page offset within the file
	// Shared-memory mappings.
	Shm *ShmObj
}

// Contains reports whether vpn lies inside the area.
func (v *VMA) Contains(vpn uint64) bool {
	return vpn >= v.Base && vpn < v.Base+v.Pages
}

func (p *Proc) vmaAt(vpn uint64) *VMA {
	for _, v := range p.vmas {
		if v.Contains(vpn) {
			return v
		}
	}
	return nil
}

// --- Guest-physical page accounting ---------------------------------------

// freeList hands out the numbers in [next, hi): recycled numbers first, most
// recently freed first, then never-used numbers in ascending order. That is
// the order a stack pre-filled with hi-1 ... next gives, without the fill.
type freeList struct {
	freed []uint64 // recycled numbers; the last one is handed out first
	next  uint64   // lowest never-used number
	hi    uint64
}

func (f *freeList) alloc() (uint64, bool) {
	if n := len(f.freed); n > 0 {
		x := f.freed[n-1]
		f.freed = f.freed[:n-1]
		return x, true
	}
	if f.next == f.hi {
		return 0, false
	}
	f.next++
	return f.next - 1, true
}

func (f *freeList) free(x uint64) { f.freed = append(f.freed, x) }

// len reports how many numbers remain to be handed out.
func (f *freeList) len() int { return len(f.freed) + int(f.hi-f.next) }

// gppnAllocator manages guest-physical pages with sharing counts (COW).
type gppnAllocator struct {
	pages freeList
	refs  map[mach.GPPN]int
}

func newGPPNAllocator(pages int) *gppnAllocator {
	// GPPN 0 is reserved so a zero page number can mean "no page"
	// (shared-memory objects and other tables rely on this).
	return &gppnAllocator{
		pages: freeList{next: 1, hi: uint64(pages)},
		refs:  make(map[mach.GPPN]int),
	}
}

func (a *gppnAllocator) alloc() (mach.GPPN, bool) {
	x, ok := a.pages.alloc()
	if !ok {
		return 0, false
	}
	g := mach.GPPN(x)
	a.refs[g] = 1
	return g, true
}

func (a *gppnAllocator) share(g mach.GPPN) { a.refs[g]++ }

// release decrements the sharing count; returns true when the caller held
// the last reference (and must free or recycle the frame).
func (a *gppnAllocator) release(g mach.GPPN) bool {
	a.refs[g]--
	return a.refs[g] == 0
}

// free returns a frame to the pool; call only after release returned true.
func (a *gppnAllocator) free(g mach.GPPN) {
	delete(a.refs, g)
	a.pages.free(uint64(g))
}

func (a *gppnAllocator) refCount(g mach.GPPN) int { return a.refs[g] }

func (a *gppnAllocator) freePages() int { return a.pages.len() }

// --- Swap ------------------------------------------------------------------

// swapSpace is the swap device plus its slot allocator.
type swapSpace struct {
	disk *mach.Disk
	freeList
	// contents of duplicated slots are shared copy-on-nothing: dup copies.
}

// newSwapSpace builds the pager's backing store. disk may be a pre-built
// device larger than pages (the embedding host reserves the tail — e.g. for
// the VMM's metadata journal); the pager only ever allocates slots in
// [0, pages). nil means a private device of exactly pages blocks.
func newSwapSpace(world *sim.World, pages uint64, disk *mach.Disk) *swapSpace {
	if disk == nil {
		disk = mach.NewDisk(world, pages)
	}
	return &swapSpace{disk: disk, freeList: freeList{hi: pages}}
}

// dup copies a slot's contents into a fresh slot (fork of swapped pages).
func (s *swapSpace) dup(b uint64) (uint64, bool) {
	nb, ok := s.alloc()
	if !ok {
		return 0, false
	}
	buf := make([]byte, mach.BlockSize)
	if err := s.disk.Read(b, buf); err != nil {
		s.free(nb)
		return 0, false
	}
	if err := s.disk.Write(nb, buf); err != nil {
		s.free(nb)
		return 0, false
	}
	return nb, true
}

// residentPage is an entry in the global page-replacement candidate list.
type residentPage struct {
	p   *Proc
	vpn uint64
	seq int // generation to detect staleness cheaply
}

func (k *Kernel) noteResident(p *Proc, vpn uint64) {
	k.handSeq++
	k.resident = append(k.resident, residentPage{p: p, vpn: vpn, seq: k.handSeq})
}

// scratchPage returns the kernel's page-sized scratch buffer, zeroed to
// reproduce the fresh-allocation semantics the transfer paths were written
// against. Reuse is safe because the baton scheduler admits exactly one
// runnable goroutine, and every user (page-out, page-in, COW break, msync)
// is done with the buffer before any path that could re-enter page
// allocation: allocUserPage's eviction (the only nested user) completes
// before its caller touches the buffer it acquired.
func (k *Kernel) scratchPage() []byte {
	clear(k.pageBuf)
	return k.pageBuf
}

// --- Page allocation with replacement --------------------------------------

// allocUserPage gets a guest-physical page for (p, vpn), evicting other
// pages to swap under memory pressure.
func (k *Kernel) allocUserPage(p *Proc, vpn uint64) (mach.GPPN, Errno) {
	for attempt := 0; attempt < 3; attempt++ {
		if g, ok := k.mem.alloc(); ok {
			k.noteResident(p, vpn)
			return g, OK
		}
		if !k.evictSome(8) {
			break
		}
	}
	return 0, ENOMEM
}

// mapUserPage installs the guest PTE for a freshly provided page.
func (p *Proc) mapUserPage(vpn uint64, g mach.GPPN, writable bool) {
	flags := mmu.FlagPresent | mmu.FlagUser
	if writable {
		flags |= mmu.FlagWritable
	}
	p.gpt.Map(vpn, mmu.PTE{PN: uint64(g), Flags: flags})
	p.residentPages++
}

// evictSome pages out up to n resident pages using a second-chance sweep of
// the global candidate list. Returns true if at least one page was freed.
func (k *Kernel) evictSome(n int) bool {
	freed := 0
	scanned := 0
	limit := 2 * len(k.resident)
	for freed < n && scanned < limit && len(k.resident) > 0 {
		rp := k.resident[0]
		k.resident = k.resident[1:]
		scanned++
		pte := rp.p.gpt.Lookup(rp.vpn)
		if !pte.Present() || rp.p.state == stateZombie {
			continue // stale entry
		}
		if pte.Flags.Has(mmu.FlagAccessed) {
			// Second chance: clear and requeue.
			rp.p.gpt.ClearFlags(rp.vpn, mmu.FlagAccessed)
			k.resident = append(k.resident, rp)
			continue
		}
		if k.pageOut(rp.p, rp.vpn, pte) {
			freed++
		}
	}
	if freed == 0 && len(k.resident) > 0 {
		// Pressure override: evict ignoring accessed bits.
		for freed < n && len(k.resident) > 0 {
			rp := k.resident[0]
			k.resident = k.resident[1:]
			pte := rp.p.gpt.Lookup(rp.vpn)
			if !pte.Present() || rp.p.state == stateZombie {
				continue
			}
			if k.pageOut(rp.p, rp.vpn, pte) {
				freed++
			}
		}
	}
	return freed > 0
}

// pageOut writes one page to swap (or drops it if clean and file-backed)
// and frees its frame. The page's owner may be cloaked: the direct-map read
// forces encryption, so only ciphertext ever reaches the swap device.
func (k *Kernel) pageOut(p *Proc, vpn uint64, pte mmu.PTE) bool {
	g := mach.GPPN(pte.PN)
	if k.mem.refCount(g) > 1 {
		// Shared COW frame: unmapping one mapping is correct; the frame
		// stays resident for the other sharers.
		p.gpt.Unmap(vpn)
		p.residentPages--
		k.vmm.InvalidateGuestMapping(p.as, vpn)
		k.mem.release(g)
		// The page content survives in the other sharers' mappings; this
		// process will COW-fault it back in from... nothing. To stay
		// correct we must swap instead. Re-map and refuse.
		// (Shared pages are rare in the workloads; skip them.)
		p.gpt.Map(vpn, pte)
		p.residentPages++
		k.mem.share(g)
		return false
	}
	v := p.vmaAt(vpn)
	dirty := pte.Flags.Has(mmu.FlagDirty)

	if v != nil && v.Kind == VMAFile && !dirty {
		// Clean file page: drop, re-read on demand.
	} else {
		blk, ok := k.swap.alloc()
		if !ok {
			return false
		}
		buf := k.scratchPage()
		// Forces encryption of cloaked plaintext before the kernel sees it.
		if err := k.vmm.PhysRead(g, 0, buf); err != nil {
			k.swap.free(blk)
			return false
		}
		if kind, _ := k.world.CPU().InjectAt(fault.SiteSwapOut); kind != fault.None {
			if kind == fault.Fail {
				// Page-out aborted mid-flight: the page simply stays resident.
				k.swap.free(blk)
				return false
			}
			// Kernel-side corruption of the outbound page. For a cloaked page
			// this damages ciphertext, which verification catches at page-in.
			k.world.Fault.Corrupt(buf)
		}
		if k.Adversary.OnPageOut != nil {
			k.Adversary.OnPageOut(k, p, vpn, buf)
		}
		if err := k.swap.disk.Write(blk, buf); err != nil {
			k.swap.free(blk)
			return false
		}
		// Tell the VMM where this page's ciphertext now lives. A no-op
		// unless a metadata journal is attached; the VMM treats the
		// location as an untrusted hint for crash recovery.
		k.vmm.NoteSwapSlot(g, blk)
		if old, had := p.swapped[vpn]; had {
			k.swap.free(old)
		}
		p.swapped[vpn] = blk
		k.world.CPU().ChargeAdd(0, sim.CtrPageOut, 1)
		k.world.CPU().Emit(obs.KindSwap, "out", vpn)
	}
	p.gpt.Unmap(vpn)
	p.residentPages--
	k.vmm.InvalidateGuestMapping(p.as, vpn)
	if k.mem.release(g) {
		k.vmm.NotifyFrameRecycled(g)
		k.mem.free(g)
	}
	return true
}

// handleFault services a guest page fault for (p, vpn). Returns OK if the
// mapping is (re-)established, or an errno for a genuine segfault.
func (k *Kernel) handleFault(p *Proc, f *mmu.Fault) Errno {
	vpn := f.VPN
	v := p.vmaAt(vpn)
	if v == nil {
		return EFAULT
	}
	if f.Access == mmu.AccessWrite && !v.Writable {
		return EACCES
	}

	pte := p.gpt.Lookup(vpn)
	if pte.Present() {
		// Present but faulted: protection. COW write?
		if f.Access == mmu.AccessWrite && v.Writable && !pte.Flags.Has(mmu.FlagWritable) {
			return k.cowBreak(p, vpn, pte)
		}
		return EFAULT
	}

	// Not present: demand page.
	if blk, swappedOut := p.swapped[vpn]; swappedOut {
		return k.pageInSwap(p, vpn, v, blk)
	}
	switch v.Kind {
	case VMAFile:
		return k.pageInFile(p, vpn, v)
	case VMAShm:
		return k.pageInShm(p, vpn, v)
	default:
		return k.pageInZero(p, vpn, v)
	}
}

func (k *Kernel) pageInZero(p *Proc, vpn uint64, v *VMA) Errno {
	g, errno := k.allocUserPage(p, vpn)
	if errno != OK {
		return errno
	}
	if err := k.vmm.PhysZero(g); err != nil {
		k.mem.release(g)
		k.mem.free(g)
		return EIO
	}
	p.mapUserPage(vpn, g, v.Writable)
	k.world.CPU().ChargeAdd(0, sim.CtrPageFaultDemand, 1)
	return OK
}

func (k *Kernel) pageInSwap(p *Proc, vpn uint64, v *VMA, blk uint64) Errno {
	g, errno := k.allocUserPage(p, vpn)
	if errno != OK {
		return errno
	}
	buf := k.scratchPage()
	// Transient read errors get a bounded retry before the fault is
	// surfaced: a real kernel's block layer does the same, and the E13
	// degradation scenarios rely on the distinction between one bad read
	// and a persistently failing device.
	if k.swap.disk.ReadRetry(blk, buf) != nil {
		k.mem.release(g)
		k.mem.free(g)
		return EIO
	}
	if kind, _ := k.world.CPU().InjectAt(fault.SiteSwapIn); kind != fault.None {
		if kind == fault.Fail {
			k.mem.release(g)
			k.mem.free(g)
			return EIO
		}
		k.world.Fault.Corrupt(buf)
	}
	if k.Adversary.OnPageIn != nil {
		k.Adversary.OnPageIn(k, p, vpn, buf)
	}
	if err := k.vmm.PhysWrite(g, 0, buf); err != nil {
		k.mem.release(g)
		k.mem.free(g)
		return EIO
	}
	p.mapUserPage(vpn, g, v.Writable)
	delete(p.swapped, vpn)
	k.swap.free(blk)
	k.world.CPU().ChargeAdd(0, sim.CtrPageIn, 1)
	k.world.CPU().Emit(obs.KindSwap, "in", vpn)
	return OK
}

func (k *Kernel) pageInFile(p *Proc, vpn uint64, v *VMA) Errno {
	g, errno := k.allocUserPage(p, vpn)
	if errno != OK {
		return errno
	}
	pageIdx := v.FileOff + (vpn - v.Base)
	buf := k.scratchPage()
	if err := k.fs.ReadFilePage(v.Ino, pageIdx, buf); err != OK {
		k.mem.release(g)
		k.mem.free(g)
		return err
	}
	if err := k.vmm.PhysWrite(g, 0, buf); err != nil {
		k.mem.release(g)
		k.mem.free(g)
		return EIO
	}
	p.mapUserPage(vpn, g, v.Writable)
	k.world.CPU().ChargeAdd(0, sim.CtrPageFaultDemand, 1)
	return OK
}

// cowBreak copies a shared frame on write.
func (k *Kernel) cowBreak(p *Proc, vpn uint64, pte mmu.PTE) Errno {
	g := mach.GPPN(pte.PN)
	if k.mem.refCount(g) == 1 {
		// Last sharer: just restore write permission.
		p.gpt.SetFlags(vpn, mmu.FlagWritable)
		k.vmm.InvalidateGuestMapping(p.as, vpn)
		k.world.CPU().ChargeAdd(0, sim.CtrPageFaultCOW, 1)
		return OK
	}
	ng, errno := k.allocUserPage(p, vpn)
	if errno != OK {
		return errno
	}
	buf := k.scratchPage()
	if err := k.vmm.PhysRead(g, 0, buf); err != nil {
		k.mem.release(ng)
		k.mem.free(ng)
		return EIO
	}
	if err := k.vmm.PhysWrite(ng, 0, buf); err != nil {
		k.mem.release(ng)
		k.mem.free(ng)
		return EIO
	}
	k.world.CPU().ChargeAdd(k.world.Cost.PageCopy, sim.CtrPageCopy, 1)
	k.mem.release(g)
	p.gpt.Map(vpn, mmu.PTE{PN: uint64(ng),
		Flags: mmu.FlagPresent | mmu.FlagUser | mmu.FlagWritable})
	k.vmm.InvalidateGuestMapping(p.as, vpn)
	k.world.CPU().ChargeAdd(0, sim.CtrPageFaultCOW, 1)
	return OK
}

// --- brk / mmap / munmap ----------------------------------------------------

// sbrk grows (or shrinks) the heap by delta pages, returning the old break
// VPN.
func (k *Kernel) sbrk(p *Proc, delta int64) (uint64, Errno) {
	old := p.brk
	nb := int64(p.brk) + delta
	if nb < int64(LayoutHeapBase) || nb > int64(LayoutHeapMax) {
		return 0, ENOMEM
	}
	p.brk = uint64(nb)
	heap := p.vmas[0]
	heap.Pages = p.brk - LayoutHeapBase
	if delta < 0 {
		for vpn := p.brk; vpn < old; vpn++ {
			k.dropPage(p, vpn)
		}
	}
	return old, OK
}

// mmapAnon maps pages of zeroed memory, returning the base VPN.
func (k *Kernel) mmapAnon(p *Proc, pages uint64, writable bool) (uint64, Errno) {
	if pages == 0 {
		return 0, EINVAL
	}
	base := p.mmapPtr
	if base+pages > LayoutMmapMax {
		return 0, ENOMEM
	}
	p.mmapPtr += pages
	p.vmas = append(p.vmas, &VMA{Base: base, Pages: pages, Kind: VMAAnon, Writable: writable})
	return base, OK
}

// mmapFile maps a file range.
func (k *Kernel) mmapFile(p *Proc, pages uint64, ino Ino, fileOffPages uint64, writable bool) (uint64, Errno) {
	if pages == 0 {
		return 0, EINVAL
	}
	base := p.mmapPtr
	if base+pages > LayoutMmapMax {
		return 0, ENOMEM
	}
	p.mmapPtr += pages
	p.vmas = append(p.vmas, &VMA{Base: base, Pages: pages, Kind: VMAFile,
		Writable: writable, Ino: ino, FileOff: fileOffPages})
	return base, OK
}

// munmap removes the VMA starting at base.
func (k *Kernel) munmap(p *Proc, base uint64) Errno {
	for i, v := range p.vmas {
		if v.Base == base && (v.Kind == VMAAnon || v.Kind == VMAFile || v.Kind == VMAShm) {
			for vpn := v.Base; vpn < v.Base+v.Pages; vpn++ {
				k.dropPage(p, vpn)
			}
			p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
			return OK
		}
	}
	return EINVAL
}

// msync writes dirty pages of a file mapping back to the file. For cloaked
// windows the direct-map read forces encryption, so the file receives
// ciphertext — this is how cloaked file persistence works.
func (k *Kernel) msync(p *Proc, base uint64) Errno {
	var v *VMA
	for _, q := range p.vmas {
		if q.Base == base && q.Kind == VMAFile {
			v = q
			break
		}
	}
	if v == nil {
		return EINVAL
	}
	buf := k.scratchPage()
	for vpn := v.Base; vpn < v.Base+v.Pages; vpn++ {
		if blk, out := p.swapped[vpn]; out {
			// A dirty page of this mapping was paged out: its newest
			// content lives in swap (as ciphertext for cloaked windows).
			if err := k.swap.disk.Read(blk, buf); err != nil {
				return EIO
			}
			if err := k.fs.WriteFilePage(v.Ino, v.FileOff+(vpn-v.Base), buf); err != OK {
				return err
			}
			continue // leave it swap-resident; it is now also in the file
		}
		pte := p.gpt.Lookup(vpn)
		if !pte.Present() || !pte.Flags.Has(mmu.FlagDirty) {
			continue
		}
		g := mach.GPPN(pte.PN)
		if err := k.vmm.PhysRead(g, 0, buf); err != nil {
			return EIO
		}
		if err := k.fs.WriteFilePage(v.Ino, v.FileOff+(vpn-v.Base), buf); err != OK {
			return err
		}
		p.gpt.ClearFlags(vpn, mmu.FlagDirty)
	}
	return OK
}

// dropPage discards the mapping and backing of one page.
func (k *Kernel) dropPage(p *Proc, vpn uint64) {
	pte := p.gpt.Lookup(vpn)
	if pte.Present() {
		g := mach.GPPN(pte.PN)
		p.gpt.Unmap(vpn)
		p.residentPages--
		k.vmm.InvalidateGuestMapping(p.as, vpn)
		if k.mem.release(g) {
			k.vmm.NotifyFrameRecycled(g)
			k.mem.free(g)
		}
	}
	if blk, ok := p.swapped[vpn]; ok {
		k.swap.free(blk)
		delete(p.swapped, vpn)
	}
}
