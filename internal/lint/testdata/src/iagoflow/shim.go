// Package shim is iagoflow-analyzer testdata loaded under the production
// import path overshadow/internal/shim. It declares local stand-ins for the
// UserCtx kernel surface and the validation layer so the analyzer's
// sanitize-before-use tracking can be exercised without the real packages.
package shim

type Addr uint64

type Errno int

func (e Errno) Error() string { return "errno" }

type Sysno uint64

func (no Sysno) String() string { return "read" }

// UserCtx stands in for the guestos kernel entry surface: every return
// value is kernel-controlled.
type UserCtx struct{}

func (u *UserCtx) Sbrk(delta int64) (Addr, error)           { return 0, nil }
func (u *UserCtx) Alloc(pages int) (Addr, error)            { return 0, nil }
func (u *UserCtx) Read(fd int, va Addr, n int) (int, error) { return 0, nil }
func (u *UserCtx) Transfer(no Sysno, fd int, va Addr, n int, off uint64) (int, error) {
	return 0, nil
}
func (u *UserCtx) Open(path string, flags int) (int, error) { return 0, nil }
func (u *UserCtx) Pipe() (int, int, error)                  { return 0, 0, nil }
func (u *UserCtx) Close(fd int) error                       { return nil }

// Ctx stands in for the shim context.
type Ctx struct {
	uc *UserCtx
}

func (s *Ctx) validateHeapBrk(call string, old Addr, delta int64) error      { return nil }
func (s *Ctx) validateMappedBase(call string, base Addr, pages uint64) error { return nil }
func (s *Ctx) validateXferCount(call string, got, chunk int) error           { return nil }
func (s *Ctx) validateNewFD(call string, fd int) error                       { return nil }
func (s *Ctx) validateErrno(call string, err error) error                    { return err }

func (s *Ctx) bounce(from, to Addr, n int) {}

// goodSbrk is the canonical shape: errno validated on the failure path,
// value validated before any use.
func (s *Ctx) goodSbrk(delta int64) (Addr, error) {
	old, err := s.uc.Sbrk(delta)
	if err != nil {
		return 0, s.validateErrno("sbrk", err)
	}
	if verr := s.validateHeapBrk("sbrk", old, delta); verr != nil {
		return 0, verr
	}
	return old, nil
}

// badNeverValidated drops the kernel base straight into a register call.
func (s *Ctx) badNeverValidated(pages int) (Addr, error) {
	base, err := s.uc.Alloc(pages) // want `kernel-returned value base from uc\.Alloc is never validated: call validateMappedBase before use`
	if err != nil {
		return 0, s.validateErrno("alloc", err)
	}
	return base, nil
}

// badWrongValidator sanitizes an mmap base with the heap validator: the
// window and alias checks never run.
func (s *Ctx) badWrongValidator(pages int) (Addr, error) {
	base, err := s.uc.Alloc(pages) // want `kernel-returned value base from uc\.Alloc is never validated: call validateMappedBase before use`
	if err != nil {
		return 0, s.validateErrno("alloc", err)
	}
	if verr := s.validateHeapBrk("alloc", base, 0); verr != nil {
		return 0, verr
	}
	return base, nil
}

// badUseBeforeValidate dereferences the kernel count before the bound check.
func (s *Ctx) badUseBeforeValidate(fd int, va Addr, chunk int) (int, error) {
	got, err := s.uc.Read(fd, va, chunk)
	if err != nil {
		return 0, s.validateErrno("read", err)
	}
	s.bounce(va, va, got) // want `kernel-returned value got from uc\.Read used before validateXferCount validates it`
	if verr := s.validateXferCount("read", got, chunk); verr != nil {
		return 0, verr
	}
	return got, nil
}

// badErrnoPassthrough propagates the kernel errno unvalidated: a forged
// errno reaches the application.
func (s *Ctx) badErrnoPassthrough(path string) (int, error) {
	fd, err := s.uc.Open(path, 0) // want `kernel errno err from uc\.Open propagates without validateErrno`
	if err != nil {
		return 0, err
	}
	if verr := s.validateNewFD("open", fd); verr != nil {
		return 0, verr
	}
	return fd, nil
}

// goodPipe validates both kernel descriptors; the first validator call per
// variable is the sanitize point.
func (s *Ctx) goodPipe() (int, int, error) {
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

// badPipeHalf validates one descriptor and leaks the other.
func (s *Ctx) badPipeHalf() (int, int, error) {
	r, w, err := s.uc.Pipe() // want `kernel-returned value w from uc\.Pipe is never validated: call validateNewFD before use`
	if err != nil {
		return 0, 0, s.validateErrno("pipe", err)
	}
	if verr := s.validateNewFD("pipe", r); verr != nil {
		return 0, 0, verr
	}
	return r, w, nil
}

// goodLoop mirrors the marshalled-read shape: rebinding in a loop stays
// clean as long as the validator precedes every use.
func (s *Ctx) goodLoop(fd int, va Addr, n int) (int, error) {
	total := 0
	for total < n {
		chunk := n - total
		got, err := s.uc.Read(fd, va, chunk)
		if err != nil {
			return total, s.validateErrno("read", err)
		}
		if verr := s.validateXferCount("read", got, chunk); verr != nil {
			return total, verr
		}
		s.bounce(va, va+Addr(total), got)
		total += got
		if got < chunk {
			break
		}
	}
	return total, nil
}

// untracked entry points are not the analyzer's business.
func (s *Ctx) goodClose(fd int) error { return s.uc.Close(fd) }

// goodTransfer mirrors the shim's one transfer loop over the single kernel
// entry: the errno is validated on the failure path and the count before any
// use, whichever call no names.
func (s *Ctx) goodTransfer(no Sysno, fd int, va Addr, n int, off uint64) (int, error) {
	total := 0
	for total < n {
		chunk := n - total
		got, err := s.uc.Transfer(no, fd, va, chunk, off+uint64(total))
		if err != nil {
			return total, s.validateErrno(no.String(), err)
		}
		if verr := s.validateXferCount(no.String(), got, chunk); verr != nil {
			return total, verr
		}
		s.bounce(va, va+Addr(total), got)
		total += got
		if got < chunk {
			break
		}
	}
	return total, nil
}

// badTransferUseBeforeValidate bounces the kernel count before the bound
// check: a lying count would run the copy off the scratch window.
func (s *Ctx) badTransferUseBeforeValidate(no Sysno, fd int, va Addr, chunk int) (int, error) {
	got, err := s.uc.Transfer(no, fd, va, chunk, 0)
	if err != nil {
		return 0, s.validateErrno(no.String(), err)
	}
	s.bounce(va, va, got) // want `kernel-returned value got from uc\.Transfer used before validateXferCount validates it`
	if verr := s.validateXferCount(no.String(), got, chunk); verr != nil {
		return 0, verr
	}
	return got, nil
}

// badTransferErrno returns the kernel errno as it came: a forged errno
// reaches the application.
func (s *Ctx) badTransferErrno(no Sysno, fd int, va Addr, chunk int) (int, error) {
	got, err := s.uc.Transfer(no, fd, va, chunk, 0) // want `kernel errno err from uc\.Transfer propagates without validateErrno`
	if err != nil {
		return 0, err
	}
	if verr := s.validateXferCount(no.String(), got, chunk); verr != nil {
		return 0, verr
	}
	return got, nil
}
