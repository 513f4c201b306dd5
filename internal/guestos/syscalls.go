package guestos

import (
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// This file implements the Env surface of UserCtx. Every operation is a
// genuine trap through the secure-control-transfer path: numeric arguments
// travel through (scrubbed) registers; path strings ride alongside in the
// handler closure, standing in for a pointer to a NUL-terminated string
// (their bytes are charged like a copyin).

func (k *Kernel) chargePathCopy(path string) {
	k.world.CPU().ChargeAdd(sim.Cycles(1+len(path)/cachelineBytes)*k.world.Cost.MemAccess, sim.CtrMemAccess, uint64(1+len(path)/cachelineBytes))
}

const cachelineBytes = 64

// userRange reports whether [va, va+n) lies inside the user address space,
// VPNs 0 through mmu.MaxVPN, without wrapping. Transfer takes its length
// from a register the guest (or a hostile kernel hook) controls, so it
// checks the range first: a length past the user address space is EFAULT
// before any work. Within it, a read's kernel buffer is sized by what the
// file or pipe delivers and a write's by what copyIn reads, never by the
// register.
func userRange(va, n uint64) bool {
	const top = (mmu.MaxVPN + 1) * mach.PageSize
	return va <= top && n <= top-va
}

// Null implements Env: the lmbench null syscall.
func (c *UserCtx) Null() {
	c.trap(SysNull, [5]uint64{}, func(*vmm.Regs) uint64 { return 0 })
}

// Exit implements Env.
func (c *UserCtx) Exit(status int) {
	c.trap(SysExit, [5]uint64{uint64(status)}, func(kregs *vmm.Regs) uint64 {
		c.k.exitCurrent(c.p, int(int64(kregs.GPR[1])))
		return 0 // unreachable
	})
}

// Yield implements Env.
func (c *UserCtx) Yield() {
	c.trap(SysYield, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.yield(c.p)
		return 0
	})
}

// Sleep implements Env.
func (c *UserCtx) Sleep(cycles uint64) {
	c.trap(SysNanoSleep, [5]uint64{cycles}, func(kregs *vmm.Regs) uint64 {
		k := c.k
		k.sleepUntil(c.p, k.world.Now()+sim.Cycles(kregs.GPR[1]))
		return 0
	})
}

// Sbrk implements Env.
func (c *UserCtx) Sbrk(deltaPages int64) (mach.Addr, error) {
	v, e := c.call(SysBrk, [5]uint64{uint64(deltaPages)}, func(kregs *vmm.Regs) uint64 {
		old, errno := c.k.sbrk(c.p, int64(kregs.GPR[1]))
		return encodeRet(old*mach.PageSize, errno)
	})
	return mach.Addr(v), errOrNil(e)
}

// Alloc implements Env (anonymous mmap).
func (c *UserCtx) Alloc(pages int) (mach.Addr, error) {
	v, e := c.call(SysMmap, [5]uint64{uint64(pages)}, func(kregs *vmm.Regs) uint64 {
		base, errno := c.k.mmapAnon(c.p, kregs.GPR[1], true)
		return encodeRet(base*mach.PageSize, errno)
	})
	return mach.Addr(v), errOrNil(e)
}

// MmapFile maps pages of an open file at a kernel-chosen address. Not part
// of Env (the shim and tests use it directly for cloaked file windows).
func (c *UserCtx) MmapFile(fd int, fileOffPages, pages uint64, writable bool) (mach.Addr, error) {
	v, e := c.call(SysMmap, [5]uint64{pages, uint64(fd), fileOffPages, 1}, func(kregs *vmm.Regs) uint64 {
		f, errno := c.p.fd(int(kregs.GPR[2]))
		if errno != OK {
			return encodeRet(0, errno)
		}
		if f.pipe != nil {
			return encodeRet(0, ESPIPE)
		}
		base, errno := c.k.mmapFile(c.p, kregs.GPR[1], f.ino, kregs.GPR[3], writable)
		return encodeRet(base*mach.PageSize, errno)
	})
	return mach.Addr(v), errOrNil(e)
}

// ShmAttach implements Env: attach (creating on first use) the named
// shared-memory object of the given size, returning the mapped base.
func (c *UserCtx) ShmAttach(name string, pages int) (mach.Addr, error) {
	v, e := c.call(SysShmAttach, [5]uint64{uint64(pages)}, func(kregs *vmm.Regs) uint64 {
		c.k.chargePathCopy(name)
		base, errno := c.k.shmAttach(c.p, name, kregs.GPR[1])
		return encodeRet(base*mach.PageSize, errno)
	})
	return mach.Addr(v), errOrNil(e)
}

// Free implements Env (munmap).
func (c *UserCtx) Free(base mach.Addr) error {
	_, e := c.call(SysMunmap, [5]uint64{uint64(base)}, func(kregs *vmm.Regs) uint64 {
		return encodeRet(0, c.k.munmap(c.p, mach.PageOf(mach.Addr(kregs.GPR[1]))))
	})
	return errOrNil(e)
}

// Msync flushes dirty pages of a file mapping. Not part of Env; used by the
// shim's cloaked-I/O layer.
func (c *UserCtx) Msync(base mach.Addr) error {
	_, e := c.call(SysMsync, [5]uint64{uint64(base)}, func(kregs *vmm.Regs) uint64 {
		return encodeRet(0, c.k.msync(c.p, mach.PageOf(mach.Addr(kregs.GPR[1]))))
	})
	return errOrNil(e)
}

// --- Files ---------------------------------------------------------------

// Open implements Env.
func (c *UserCtx) Open(path string, flags int) (int, error) {
	v, e := c.call(SysOpen, [5]uint64{uint64(flags)}, func(kregs *vmm.Regs) uint64 {
		c.k.chargePathCopy(path)
		fd, errno := c.k.openFD(c.p, path, int(kregs.GPR[1]))
		return encodeRet(uint64(fd), errno)
	})
	return int(v), errOrNil(e)
}

// Close implements Env.
func (c *UserCtx) Close(fd int) error {
	_, e := c.call(SysClose, [5]uint64{uint64(fd)}, func(kregs *vmm.Regs) uint64 {
		return encodeRet(0, c.k.closeFD(c.p, int(kregs.GPR[1])))
	})
	return errOrNil(e)
}

// Read implements Env: read from fd into user memory at va.
func (c *UserCtx) Read(fd int, va mach.Addr, n int) (int, error) {
	return c.Transfer(SysRead, fd, va, n, 0)
}

// Write implements Env: write user memory at va to fd.
func (c *UserCtx) Write(fd int, va mach.Addr, n int) (int, error) {
	return c.Transfer(SysWrite, fd, va, n, 0)
}

// Pread implements Env.
func (c *UserCtx) Pread(fd int, va mach.Addr, n int, off uint64) (int, error) {
	return c.Transfer(SysPread, fd, va, n, off)
}

// Pwrite implements Env.
func (c *UserCtx) Pwrite(fd int, va mach.Addr, n int, off uint64) (int, error) {
	return c.Transfer(SysPwrite, fd, va, n, off)
}

// Transfer is the one kernel entry of read, write, pread and pwrite, which
// no names (it must be one of the four): it moves n bytes between user
// memory at va and fd, at file position off for pread and pwrite (read and
// write pass 0). A write copies the user bytes in, servicing faults, before
// it resolves the descriptor; a read copies out what the descriptor
// delivered. Only write(2) shows its data to the Adversary.OnWriteData hook.
func (c *UserCtx) Transfer(no Sysno, fd int, va mach.Addr, n int, off uint64) (int, error) {
	write := no == SysWrite || no == SysPwrite
	positioned := no == SysPread || no == SysPwrite
	v, e := c.call(no, [5]uint64{uint64(fd), uint64(va), uint64(n), off}, func(kregs *vmm.Regs) uint64 {
		k, p := c.k, c.p
		if !userRange(kregs.GPR[2], kregs.GPR[3]) {
			return encodeRet(0, EFAULT)
		}
		// The position is a copy: the file operation advances it, and the
		// register stays what the caller passed.
		var pos *uint64
		if positioned {
			at := kregs.GPR[4]
			pos = &at
		}
		if !write {
			buf, errno := k.readFD(p, int(kregs.GPR[1]), kregs.GPR[3], pos)
			if errno != OK {
				return encodeRet(0, errno)
			}
			if errno := k.copyOut(p, mach.Addr(kregs.GPR[2]), buf); errno != OK {
				return encodeRet(0, errno)
			}
			return encodeRet(uint64(len(buf)), OK)
		}
		buf, errno := k.copyIn(p, mach.Addr(kregs.GPR[2]), kregs.GPR[3])
		if errno != OK {
			return encodeRet(0, errno)
		}
		if no == SysWrite && k.Adversary.OnWriteData != nil {
			k.Adversary.OnWriteData(k, p, int(kregs.GPR[1]), buf)
		}
		got, errno := k.writeFD(p, int(kregs.GPR[1]), buf, pos)
		return encodeRet(uint64(got), errno)
	})
	return int(v), errOrNil(e)
}

// Lseek implements Env.
func (c *UserCtx) Lseek(fd int, off int64, whence int) (uint64, error) {
	v, e := c.call(SysLseek, [5]uint64{uint64(fd), uint64(off), uint64(whence)}, func(kregs *vmm.Regs) uint64 {
		pos, errno := c.k.lseekFD(c.p, int(kregs.GPR[1]), int64(kregs.GPR[2]), int(kregs.GPR[3]))
		return encodeRet(pos, errno)
	})
	return v, errOrNil(e)
}

// Stat implements Env. The StatInfo is returned through a closure slot,
// standing in for a user-memory struct pointer.
func (c *UserCtx) Stat(path string) (StatInfo, error) {
	var out StatInfo
	_, e := c.call(SysStat, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.chargePathCopy(path)
		st, errno := c.k.fs.Stat(path)
		out = st
		return encodeRet(0, errno)
	})
	return out, errOrNil(e)
}

// Fstat implements Env.
func (c *UserCtx) Fstat(fd int) (StatInfo, error) {
	var out StatInfo
	_, e := c.call(SysFstat, [5]uint64{uint64(fd)}, func(kregs *vmm.Regs) uint64 {
		f, errno := c.p.fd(int(kregs.GPR[1]))
		if errno != OK {
			return encodeRet(0, errno)
		}
		if f.pipe != nil {
			return encodeRet(0, ESPIPE)
		}
		st, errno := c.k.fs.StatIno(f.ino)
		out = st
		return encodeRet(0, errno)
	})
	return out, errOrNil(e)
}

// Unlink implements Env.
func (c *UserCtx) Unlink(path string) error {
	_, e := c.call(SysUnlink, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.chargePathCopy(path)
		return encodeRet(0, c.k.fs.Unlink(path))
	})
	return errOrNil(e)
}

// Mkdir implements Env.
func (c *UserCtx) Mkdir(path string) error {
	_, e := c.call(SysMkdir, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.chargePathCopy(path)
		return encodeRet(0, c.k.fs.Mkdir(path))
	})
	return errOrNil(e)
}

// Truncate implements Env.
func (c *UserCtx) Truncate(path string, size uint64) error {
	_, e := c.call(SysTruncate, [5]uint64{size}, func(kregs *vmm.Regs) uint64 {
		c.k.chargePathCopy(path)
		return encodeRet(0, c.k.fs.Truncate(path, kregs.GPR[1]))
	})
	return errOrNil(e)
}

// ReadDir implements Env: directory entries, sorted. The names return
// through the closure, standing in for a user dirent buffer.
func (c *UserCtx) ReadDir(path string) ([]string, error) {
	var names []string
	_, e := c.call(SysGetDirEntries, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.chargePathCopy(path)
		ns, errno := c.k.fs.ReadDir(path)
		names = ns
		return encodeRet(uint64(len(ns)), errno)
	})
	return names, errOrNil(e)
}

// Fsync implements Env. The block filesystem writes through, so this is a
// semantic no-op that still pays the trap (the shim overrides it for
// cloaked files, where it flushes the mmap window).
func (c *UserCtx) Fsync(fd int) error {
	_, e := c.call(SysFsync, [5]uint64{uint64(fd)}, func(kregs *vmm.Regs) uint64 {
		_, errno := c.p.fd(int(kregs.GPR[1]))
		return encodeRet(0, errno)
	})
	return errOrNil(e)
}

// Dup implements Env.
func (c *UserCtx) Dup(fd int) (int, error) {
	v, e := c.call(SysDup, [5]uint64{uint64(fd)}, func(kregs *vmm.Regs) uint64 {
		nfd, errno := c.k.dupFD(c.p, int(kregs.GPR[1]))
		return encodeRet(uint64(nfd), errno)
	})
	return int(v), errOrNil(e)
}

// Pipe implements Env.
func (c *UserCtx) Pipe() (int, int, error) {
	var rfd, wfd int
	_, e := c.call(SysPipe, [5]uint64{}, func(*vmm.Regs) uint64 {
		r, w, errno := c.k.makePipe(c.p)
		rfd, wfd = r, w
		return encodeRet(0, errno)
	})
	return rfd, wfd, errOrNil(e)
}

// --- Process control --------------------------------------------------------

// Pid/PPid/Time syscall variants (the Env accessors read kernel state
// directly; these exist for the microbenchmarks that need the trap cost).

// SysGetPidCall performs the full getpid syscall.
func (c *UserCtx) SysGetPidCall() Pid {
	v := c.trap(SysGetPid, [5]uint64{}, func(*vmm.Regs) uint64 {
		return uint64(c.p.pid)
	})
	return Pid(v)
}

// Fork implements Env.
func (c *UserCtx) Fork(child func(Env)) (Pid, error) {
	return c.ForkWith(func(uc *UserCtx) { child(uc) }, nil)
}

// ForkWith is the raw fork used by the shim: childRunner receives the
// child's kernel context, onPrepared runs (in the parent, with the child
// built but not yet runnable) to let the shim re-cloak the child.
func (c *UserCtx) ForkWith(childRunner func(*UserCtx), onPrepared func(parent, child *vmm.AddressSpace) error) (Pid, error) {
	v, e := c.call(SysFork, [5]uint64{}, func(*vmm.Regs) uint64 {
		pid, errno := c.k.forkProc(c.p, childRunner, onPrepared)
		return encodeRet(uint64(pid), errno)
	})
	return Pid(v), errOrNil(e)
}

// Exec implements Env.
func (c *UserCtx) Exec(name string, args []string) error {
	_, e := c.call(SysExec, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.chargePathCopy(name)
		return encodeRet(0, c.k.execProc(c.p, name, args))
	})
	if e != OK {
		return e
	}
	// The new image takes over this goroutine.
	panic(execReplace{})
}

// WaitPid implements Env. pid <= 0 waits for any child.
func (c *UserCtx) WaitPid(pid Pid) (Pid, int, error) {
	var status int
	v, e := c.call(SysWaitPid, [5]uint64{uint64(pid)}, func(kregs *vmm.Regs) uint64 {
		got, st, errno := c.k.waitPid(c.p, Pid(int64(kregs.GPR[1])))
		status = st
		return encodeRet(uint64(got), errno)
	})
	return Pid(v), status, errOrNil(e)
}

// Kill implements Env.
func (c *UserCtx) Kill(pid Pid, sig Signal) error {
	_, e := c.call(SysKill, [5]uint64{uint64(pid), uint64(sig)}, func(kregs *vmm.Regs) uint64 {
		return encodeRet(0, c.k.killProc(c.p, Pid(kregs.GPR[1]), Signal(kregs.GPR[2])))
	})
	return errOrNil(e)
}

// SpawnThread implements Env: start a new thread in this process sharing
// the whole address space. Each thread gets its own register context (and,
// cloaked, its own CTC in the VMM).
func (c *UserCtx) SpawnThread(body func(Env)) (Pid, error) {
	return c.SpawnThreadWith(func(uc *UserCtx) { body(uc) })
}

// SpawnThreadWith is the raw thread spawn used by the shim: the runner
// receives the new thread's kernel context so the shim can bind its CTC to
// the domain before running the body.
func (c *UserCtx) SpawnThreadWith(runner func(*UserCtx)) (Pid, error) {
	v, e := c.call(SysThreadCreate, [5]uint64{}, func(*vmm.Regs) uint64 {
		tid := c.k.createThread(c.p, runner)
		return encodeRet(uint64(tid), OK)
	})
	return Pid(v), errOrNil(e)
}

// JoinThread implements Env: wait for a sibling thread to exit.
func (c *UserCtx) JoinThread(tid Pid) error {
	_, e := c.call(SysThreadJoin, [5]uint64{uint64(tid)}, func(kregs *vmm.Regs) uint64 {
		return encodeRet(0, c.k.joinThread(c.p, Pid(kregs.GPR[1])))
	})
	return errOrNil(e)
}

// ExitThread implements Env: terminate only the calling thread. The last
// thread's exit completes the process with the recorded status (0 unless
// Exit set one).
func (c *UserCtx) ExitThread() {
	c.trap(SysThreadExit, [5]uint64{}, func(*vmm.Regs) uint64 {
		c.k.exitThread(c.p)
		return 0 // unreachable
	})
}

// Signal implements Env.
func (c *UserCtx) Signal(sig Signal, h SigHandler) error {
	_, e := c.call(SysSignal, [5]uint64{uint64(sig)}, func(kregs *vmm.Regs) uint64 {
		s := Signal(kregs.GPR[1])
		if s == SIGKILL {
			return encodeRet(0, EINVAL)
		}
		if h == nil {
			delete(c.p.sigHandlers, s)
		} else {
			c.p.sigHandlers[s] = h
		}
		return encodeRet(0, OK)
	})
	return errOrNil(e)
}
