package shim

import (
	"overshadow/internal/cloak"
	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// This file implements cloaked file I/O by transparent memory-mapped
// emulation (the paper's companion mechanism): read() and write() on a
// cloaked file never pass data through the kernel. The shim maps a window
// of the file into a cloaked region bound to the file's stable vault
// identity and performs plain memory copies; the VMM decrypts/encrypts at
// the window, and the kernel only ever stores and pages ciphertext.

// cloakedFile is the shim's per-descriptor state for a cloaked file.
type cloakedFile struct {
	fd    int
	path  string
	ino   guestos.Ino
	vault cloak.DomainID
	res   cloak.ResourceID
	pos   uint64
	size  uint64 // logical size (the FS only knows page-rounded extents)
	flags int    // open flags: the access mode and O_APPEND

	winBase  mach.Addr // 0 = no window mapped
	winOff   uint64    // first file page the window covers
	winPages uint64
}

func (s *Ctx) openCloaked(path string, flags int) (int, error) {
	fd, err := s.uc.Open(path, flags)
	if err != nil {
		return 0, s.validateErrno("open", err)
	}
	if verr := s.validateNewFD("open", fd); verr != nil {
		return 0, verr
	}
	st, err := s.uc.Fstat(fd)
	if err != nil {
		//overlint:allow errnodiscipline -- error path: the Fstat failure is what gets reported, not the best-effort close
		s.uc.Close(fd)
		return 0, err
	}
	if flags&guestos.OTrunc != 0 {
		// Truncation discards the old contents *and* their metadata; a
		// fresh vault gives the file a clean identity.
		s.hv.HCDropFileResource(uint64(st.Ino))
	}
	vault, res := s.hv.HCFileResource(uint64(st.Ino))
	s.cfiles[fd] = &cloakedFile{
		fd: fd, path: path, ino: st.Ino,
		vault: vault, res: res,
		size:  st.Size,
		flags: flags,
	}
	return fd, nil
}

// ensureWindow maps the window containing file page idx, flushing and
// remapping as needed.
func (s *Ctx) ensureWindow(cf *cloakedFile, idx uint64) error {
	if cf.winBase != 0 && idx >= cf.winOff && idx < cf.winOff+cf.winPages {
		return nil
	}
	if err := s.dropWindow(cf); err != nil {
		return err
	}
	off := (idx / windowPages) * windowPages // window-aligned
	va, err := s.uc.MmapFile(cf.fd, off, windowPages, true)
	if err != nil {
		return s.validateErrno("mmap_file", err)
	}
	if verr := s.validateMappedBase("mmap_file", va, windowPages); verr != nil {
		return verr
	}
	s.mustRegister(vmm.Region{
		BaseVPN: mach.PageOf(va), Pages: windowPages,
		Resource: cf.res, Cloaked: true,
		IndexOff: off, Domain: cf.vault,
	})
	s.maps.add(mapping{base: mach.PageOf(va), pages: windowPages, kind: mapWindow})
	cf.winBase = va
	cf.winOff = off
	cf.winPages = windowPages
	return nil
}

// dropWindow flushes and unmaps the current window, if any. The flush
// retries transient I/O failures (injected disk faults surface as EIO)
// with sim-clock backoff before giving up.
func (s *Ctx) dropWindow(cf *cloakedFile) error {
	if cf.winBase == 0 {
		return nil
	}
	if err := s.retryTransient(func() error { return s.uc.Msync(cf.winBase) }); err != nil {
		return err
	}
	if err := s.retryTransient(func() error { return s.conn.UnregisterRegion(mach.PageOf(cf.winBase)) }); err != nil {
		return err
	}
	if err := s.uc.Free(cf.winBase); err != nil {
		return err
	}
	s.maps.remove(mach.PageOf(cf.winBase))
	cf.winBase = 0
	cf.winPages = 0
	return nil
}

// cloakedIO moves n bytes between user memory at va and the file at off,
// entirely through the mapped window (no kernel data path).
func (s *Ctx) cloakedIO(cf *cloakedFile, va mach.Addr, n int, off uint64, write bool) (int, error) {
	w := s.uc.Kernel().World()
	if !write {
		if off >= cf.size {
			return 0, nil
		}
		if rem := cf.size - off; uint64(n) > rem {
			n = int(rem)
		}
	}
	done := 0
	for done < n {
		idx := (off + uint64(done)) / mach.PageSize
		if err := s.ensureWindow(cf, idx); err != nil {
			return done, err
		}
		winEnd := (cf.winOff + cf.winPages) * mach.PageSize
		cur := off + uint64(done)
		chunk := int(winEnd - cur)
		if chunk > n-done {
			chunk = n - done
		}
		winVA := cf.winBase + mach.Addr(cur-cf.winOff*mach.PageSize)
		buf := s.bounceBytes(chunk)
		if write {
			s.uc.ReadMem(va+mach.Addr(done), buf)
			s.uc.WriteMem(winVA, buf)
		} else {
			s.uc.ReadMem(winVA, buf)
			s.uc.WriteMem(va+mach.Addr(done), buf)
		}
		done += chunk
	}
	if write {
		if end := off + uint64(done); end > cf.size {
			cf.size = end
		}
	}
	w.CPU().ChargeAdd(0, sim.CtrShimSyscall, 1)
	return done, nil
}

func (s *Ctx) lseekCloaked(cf *cloakedFile, off int64, whence int) (uint64, error) {
	var base int64
	switch whence {
	case guestos.SeekSet:
		base = 0
	case guestos.SeekCur:
		base = int64(cf.pos)
	case guestos.SeekEnd:
		base = int64(cf.size)
	default:
		return 0, guestos.EINVAL
	}
	np := base + off
	if np < 0 {
		return 0, guestos.EINVAL
	}
	cf.pos = uint64(np)
	return cf.pos, nil
}

// flushCloaked persists a cloaked file's dirty window pages (as ciphertext)
// and its logical size.
func (s *Ctx) flushCloaked(fd int) error {
	cf, ok := s.cfiles[fd]
	if !ok {
		return guestos.EBADF
	}
	if cf.winBase != 0 {
		if err := s.retryTransient(func() error { return s.uc.Msync(cf.winBase) }); err != nil {
			return err
		}
	}
	// The FS tracks page-rounded extents; pin the logical size.
	st, err := s.uc.Fstat(cf.fd)
	if err == nil && st.Size != cf.size {
		if err := s.uc.Truncate(cf.path, cf.size); err != nil {
			return err
		}
	}
	return nil
}

func (s *Ctx) closeCloaked(fd int) error {
	cf := s.cfiles[fd]
	if err := s.flushCloaked(fd); err != nil {
		return err
	}
	if err := s.dropWindow(cf); err != nil {
		return err
	}
	delete(s.cfiles, fd)
	return s.uc.Close(fd)
}

// Fsync implements Env: for cloaked files it flushes the mmap window (the
// file then holds current ciphertext); for plain files it passes through.
func (s *Ctx) Fsync(fd int) error {
	if _, ok := s.cfiles[fd]; ok {
		return s.flushCloaked(fd)
	}
	return s.uc.Fsync(fd)
}

// ReadDir implements Env.
func (s *Ctx) ReadDir(path string) ([]string, error) { return s.uc.ReadDir(path) }
