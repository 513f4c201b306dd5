package shim

import (
	"errors"
	"fmt"

	"overshadow/internal/guestos"
	"overshadow/internal/mach"
)

// This file is the shim's Iago defense: every kernel-controlled syscall
// return value is bounds-checked and cross-checked against the shim's own
// view of the address space before it is used. The threat (Checkoway &
// Shacham's "Iago attacks") is a kernel that answers honestly-issued
// syscalls with lying values — an mmap base inside the uncloaked scratch
// region, a brk pointer outside the heap, a read count larger than the
// buffer, an fd aliasing a cloaked descriptor — hoping the trusted shim
// dereferences the lie and leaks or corrupts cloaked state.
//
// Invariant: the shim never dereferences an unvalidated kernel-controlled
// value. A value that fails validation is reported to the VMM audit log
// (EventIagoRejected, via a hypercall the kernel cannot suppress) and the
// operation fails with a typed errno — never a panic, never a use.

// rejectIago lands the audit record for a rejected kernel return and builds
// the typed error the caller propagates. The detail string must be
// deterministic (no map-iteration-dependent content).
func (s *Ctx) rejectIago(call, detail string, errno guestos.Errno) error {
	s.conn.ReportIago(call, detail)
	return errno
}

// validateMappedBase checks a kernel-returned mapping address (mmap-class
// syscalls: Alloc, ShmAttach, MmapFile) against the shim's view: page
// aligned, wholly inside the mmap window of the standard layout — which by
// construction excludes the heap, the stack, and the uncloaked scratch
// region — and not aliasing any mapping in the process's table (anonymous
// regions, shared-memory attachments, threads' scratch windows and
// cloaked-file windows): a kernel returning an already-used base would
// alias two mappings onto one range.
func (s *Ctx) validateMappedBase(call string, base mach.Addr, pages uint64) error {
	if base%mach.PageSize != 0 {
		return s.rejectIago(call,
			fmt.Sprintf("unaligned mapping base %#x", uint64(base)), guestos.EFAULT)
	}
	vpn := mach.PageOf(base)
	if pages == 0 || vpn < guestos.LayoutMmapBase ||
		vpn+pages > guestos.LayoutMmapMax || vpn+pages < vpn {
		return s.rejectIago(call,
			fmt.Sprintf("mapping vpn=%d+%d outside the mmap window", vpn, pages),
			guestos.EFAULT)
	}
	if s.maps.overlaps(vpn, pages) {
		return s.rejectIago(call,
			fmt.Sprintf("mapping vpn=%d+%d aliases a tracked cloaked mapping", vpn, pages),
			guestos.EFAULT)
	}
	return nil
}

// validateHeapBrk checks a kernel-returned program-break address: the old
// break (and the whole grown range) must lie inside the registered heap
// region, or the application would treat unprotected memory as cloaked heap.
func (s *Ctx) validateHeapBrk(call string, old mach.Addr, deltaPages int64) error {
	if old%mach.PageSize != 0 {
		return s.rejectIago(call,
			fmt.Sprintf("unaligned break %#x", uint64(old)), guestos.EFAULT)
	}
	vpn := mach.PageOf(old)
	lo, hi := uint64(guestos.LayoutHeapBase), uint64(guestos.LayoutHeapMax)
	if vpn < lo || vpn > hi {
		return s.rejectIago(call,
			fmt.Sprintf("break vpn=%d outside heap [%d,%d]", vpn, lo, hi),
			guestos.EFAULT)
	}
	if deltaPages > 0 && vpn+uint64(deltaPages) > hi {
		return s.rejectIago(call,
			fmt.Sprintf("break vpn=%d+%d grows past heap end %d", vpn, deltaPages, hi),
			guestos.EFAULT)
	}
	return nil
}

// validateXferCount checks a kernel-returned byte count against the chunk
// the shim actually offered: a count outside [0, chunk] would make the
// bounce copy read or write past the scratch window.
func (s *Ctx) validateXferCount(call string, got, chunk int) error {
	if got < 0 || got > chunk {
		return s.rejectIago(call,
			fmt.Sprintf("transfer count %d outside [0,%d]", got, chunk),
			guestos.EIO)
	}
	return nil
}

// validateNewFD checks a kernel-returned descriptor: non-negative, sane, and
// not aliasing a descriptor the shim already tracks as a cloaked file (an
// aliased fd would route one descriptor's I/O through another's window).
func (s *Ctx) validateNewFD(call string, fd int) error {
	// The kernel's fd table is small; anything wildly out of range is a lie
	// regardless of configuration.
	const fdSanity = 1 << 20
	if fd < 0 || fd >= fdSanity {
		return s.rejectIago(call,
			fmt.Sprintf("descriptor %d out of range", fd), guestos.EBADF)
	}
	if _, ok := s.cfiles[fd]; ok {
		return s.rejectIago(call,
			fmt.Sprintf("descriptor %d aliases a cloaked file", fd), guestos.EBADF)
	}
	return nil
}

// validateErrno checks a kernel-reported failure: the errno must name a real
// error. Unknown errno values (forged failure codes) are reported and
// normalized to EIO so the application never interprets garbage.
func (s *Ctx) validateErrno(call string, err error) error {
	if err == nil {
		return nil
	}
	var e guestos.Errno
	if errors.As(err, &e) && !guestos.KnownErrno(e) {
		return s.rejectIago(call,
			fmt.Sprintf("forged errno %d", int(e)), guestos.EIO)
	}
	return err
}
