package shim

import (
	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// This file implements the marshalled syscall class: operations whose
// buffers must bounce through the uncloaked scratch region so the kernel
// reads/writes plaintext it is *supposed* to see (ordinary file contents,
// pipe data) without ever being handed a cloaked pointer.

// marshalStats bumps the marshalling counters.
func (s *Ctx) marshalStats(n int) {
	w := s.uc.Kernel().World()
	w.CPU().ChargeAdd(0, sim.CtrShimSyscall, 1)
	w.CPU().ChargeAdd(0, sim.CtrShimMarshalBytes, uint64(n))
}

// Open implements Env. Cloaked paths are switched to the mmap-emulated path.
// Even pass-through descriptors are validated: a forged fd aliasing a
// cloaked file would route this descriptor's plaintext I/O through the
// cloaked window.
func (s *Ctx) Open(path string, flags int) (int, error) {
	if cloaks(path) {
		return s.openCloaked(path, flags)
	}
	fd, err := s.uc.Open(path, flags)
	if err != nil {
		return 0, s.validateErrno("open", err)
	}
	if verr := s.validateNewFD("open", fd); verr != nil {
		return 0, verr
	}
	return fd, nil
}

// Close implements Env.
func (s *Ctx) Close(fd int) error {
	if _, ok := s.cfiles[fd]; ok {
		return s.closeCloaked(fd)
	}
	return s.uc.Close(fd)
}

// Read implements Env.
func (s *Ctx) Read(fd int, va mach.Addr, n int) (int, error) {
	return s.transfer(guestos.SysRead, fd, va, n, 0)
}

// Write implements Env.
func (s *Ctx) Write(fd int, va mach.Addr, n int) (int, error) {
	return s.transfer(guestos.SysWrite, fd, va, n, 0)
}

// Pread implements Env.
func (s *Ctx) Pread(fd int, va mach.Addr, n int, off uint64) (int, error) {
	return s.transfer(guestos.SysPread, fd, va, n, off)
}

// Pwrite implements Env.
func (s *Ctx) Pwrite(fd int, va mach.Addr, n int, off uint64) (int, error) {
	return s.transfer(guestos.SysPwrite, fd, va, n, off)
}

// transfer moves n bytes between the application's memory at va and fd for
// the call no names (read, write, pread or pwrite); off is the file position
// of pread and pwrite.
//
// A cloaked file moves through its window, with no kernel data path: at off,
// or else at the descriptor's position, which the call advances (a write
// under O_APPEND starts at the end of the file). A call the open mode
// forbids is EBADF, as the kernel answers it for a plain file.
//
// Any other descriptor bounces through the thread's uncloaked scratch window
// a chunk at a time: a write copies each chunk of cloaked data into scratch
// (decrypt-on-app-read, plain write into the uncloaked window) before the
// kernel consumes it, and a read copies what the kernel left in scratch into
// its cloaked destination.
func (s *Ctx) transfer(no guestos.Sysno, fd int, va mach.Addr, n int, off uint64) (int, error) {
	write := no == guestos.SysWrite || no == guestos.SysPwrite
	positioned := no == guestos.SysPread || no == guestos.SysPwrite
	if cf, ok := s.cfiles[fd]; ok {
		if !guestos.AccessAllowed(cf.flags, write) {
			return 0, guestos.EBADF
		}
		if positioned {
			return s.cloakedIO(cf, va, n, off, write)
		}
		pos := cf.pos
		if write && cf.flags&guestos.OAppend != 0 {
			pos = cf.size
		}
		got, err := s.cloakedIO(cf, va, n, pos, write)
		cf.pos = pos + uint64(got)
		return got, err
	}
	scratch, err := s.scratch()
	if err != nil {
		return 0, err
	}
	call := no.String()
	total := 0
	for total < n {
		chunk := min(n-total, scratchBytes)
		if write {
			s.bounce(va+mach.Addr(total), scratch, chunk)
		}
		var pos uint64 // read and write carry no position
		if positioned {
			pos = off + uint64(total)
		}
		got, err := s.uc.Transfer(no, fd, scratch, chunk, pos)
		if err != nil {
			return total, s.validateErrno(call, err)
		}
		if verr := s.validateXferCount(call, got, chunk); verr != nil {
			return total, verr
		}
		if !write {
			if got == 0 {
				break
			}
			s.bounce(scratch, va+mach.Addr(total), got)
		}
		total += got
		if got < chunk {
			break // short transfer (EOF, a pipe chunk, a full device)
		}
	}
	return total, nil
}

// bounce copies n bytes between two user VAs through the application view.
func (s *Ctx) bounce(src, dst mach.Addr, n int) {
	buf := s.bounceBytes(n)
	s.uc.ReadMem(src, buf)
	s.uc.WriteMem(dst, buf)
	s.marshalStats(n)
}

// bounceBytes returns n bytes of the context's bounce buffer for one copy
// between user VAs. A copy of at most a page reuses the one page the
// context keeps, so steady-state marshalling allocates no host memory; a
// larger one gets a buffer of its own for the call.
func (s *Ctx) bounceBytes(n int) []byte {
	if n > mach.PageSize {
		return make([]byte, n)
	}
	if s.bounceBuf == nil {
		s.bounceBuf = make([]byte, mach.PageSize)
	}
	return s.bounceBuf[:n]
}

// scratch returns the uncloaked marshalling window of this context's
// thread. A process's first thread owns the layout's scratch region; a
// spawned thread maps a window of the same size on its first marshalled
// call and keeps it until the process exits. The kernel's mapping base is
// validated like any other before the shim registers the window uncloaked.
func (s *Ctx) scratch() (mach.Addr, error) {
	if s.scratchVA != 0 {
		return s.scratchVA, nil
	}
	pages := guestos.LayoutScratchLen
	base, err := s.uc.Alloc(int(pages))
	if err != nil {
		return 0, s.validateErrno("alloc", err)
	}
	if verr := s.validateMappedBase("alloc", base, pages); verr != nil {
		return 0, verr
	}
	s.mustRegister(vmm.Region{BaseVPN: mach.PageOf(base), Pages: pages})
	s.maps.add(mapping{base: mach.PageOf(base), pages: pages, kind: mapScratch})
	s.scratchVA = base
	return base, nil
}

// --- Remaining marshalled/pass-through file ops -------------------------------

// Lseek implements Env.
func (s *Ctx) Lseek(fd int, off int64, whence int) (uint64, error) {
	if cf, ok := s.cfiles[fd]; ok {
		return s.lseekCloaked(cf, off, whence)
	}
	return s.uc.Lseek(fd, off, whence)
}

// Stat implements Env.
func (s *Ctx) Stat(path string) (guestos.StatInfo, error) { return s.uc.Stat(path) }

// Fstat implements Env.
func (s *Ctx) Fstat(fd int) (guestos.StatInfo, error) {
	if cf, ok := s.cfiles[fd]; ok {
		st, err := s.uc.Fstat(fd)
		if err != nil {
			return st, err
		}
		st.Size = cf.size
		return st, nil
	}
	return s.uc.Fstat(fd)
}

// Unlink implements Env: deleting a cloaked file also drops its vault.
func (s *Ctx) Unlink(path string) error {
	if cloaks(path) {
		if st, err := s.uc.Stat(path); err == nil {
			s.hv.HCDropFileResource(uint64(st.Ino))
		}
	}
	return s.uc.Unlink(path)
}

// Mkdir implements Env.
func (s *Ctx) Mkdir(path string) error { return s.uc.Mkdir(path) }

// Truncate implements Env.
func (s *Ctx) Truncate(path string, size uint64) error {
	if cloaks(path) && size == 0 {
		if st, err := s.uc.Stat(path); err == nil {
			s.hv.HCDropFileResource(uint64(st.Ino))
		}
	}
	return s.uc.Truncate(path, size)
}

// Dup implements Env. Cloaked descriptors get their own window; the source
// window is flushed first so the duplicate observes everything written so
// far (coherence between two descriptors is dup-time + close-to-open).
func (s *Ctx) Dup(fd int) (int, error) {
	if _, ok := s.cfiles[fd]; ok {
		if err := s.flushCloaked(fd); err != nil {
			return 0, err
		}
	}
	nfd, err := s.uc.Dup(fd)
	if err != nil {
		return 0, s.validateErrno("dup", err)
	}
	if verr := s.validateNewFD("dup", nfd); verr != nil {
		return 0, verr
	}
	if cf, ok := s.cfiles[fd]; ok {
		dup := *cf
		dup.fd = nfd
		dup.winPages = 0 // the window belongs to the original fd
		dup.winBase = 0
		s.cfiles[nfd] = &dup
	}
	return nfd, nil
}

// Pipe implements Env; pipe data is marshalled on read/write. Both returned
// descriptors are validated against the cloaked-file table.
func (s *Ctx) Pipe() (int, int, error) {
	r, w, err := s.uc.Pipe()
	if err != nil {
		return 0, 0, s.validateErrno("pipe", err)
	}
	if verr := s.validateNewFD("pipe", r); verr != nil {
		return 0, 0, verr
	}
	if verr := s.validateNewFD("pipe", w); verr != nil {
		return 0, 0, verr
	}
	return r, w, nil
}
