package guestos

import (
	"errors"
	"fmt"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// execReplace is the panic sentinel that unwinds a process body when exec
// replaces the program image.
type execReplace struct{}

// UserCtx is the kernel's native implementation of Env: the environment of
// an uncloaked process, and the raw substrate the shim builds on for
// cloaked ones.
type UserCtx struct {
	p *Proc
	k *Kernel
}

var _ Env = (*UserCtx)(nil)

// Proc exposes the process (the shim needs the address space and thread).
func (c *UserCtx) Proc() *Proc { return c.p }

// Kernel exposes the kernel (the shim issues hypercalls via k.VMM()).
func (c *UserCtx) Kernel() *Kernel { return c.k }

// Thread exposes the VMM thread context (the shim binds it to a domain).
func (c *UserCtx) Thread() *vmm.Thread { return c.p.thread }

// Pid implements Env.
func (c *UserCtx) Pid() Pid { return c.p.pid }

// PPid implements Env.
func (c *UserCtx) PPid() Pid { return c.p.ppid }

// Cloaked implements Env.
func (c *UserCtx) Cloaked() bool { return c.p.cloaked }

// Args implements Env.
func (c *UserCtx) Args() []string { return c.p.args }

// Time implements Env.
func (c *UserCtx) Time() sim.Cycles { return c.k.world.Now() }

// Compute implements Env: burn simulated cycles in user mode.
func (c *UserCtx) Compute(units uint64) {
	k := c.k
	k.world.CPU().ChargeAdd(sim.Cycles(units)*k.world.Cost.ComputeUnit, sim.CtrCompute, 0)
	k.reapKilledAtSafePoint(c.p)
	if k.world.Now()-c.p.sliceStart >= quantum {
		c.timerInterrupt()
	}
}

// timerInterrupt models the asynchronous timer: a full trap (with register
// scrubbing for cloaked threads) followed by a scheduling decision.
func (c *UserCtx) timerInterrupt() {
	p, k := c.p, c.k
	p.thread.EnterKernel(vmm.TrapInterrupt)
	k.vmm.SwitchContext(p.as, vmm.ViewSystem)
	k.maybePreempt(p)
	if err := p.thread.ExitKernel(); err != nil {
		var sv *vmm.SecViolation
		if errors.As(err, &sv) {
			k.exitCurrent(p, 128+int(SIGKILL))
		}
	}
	k.vmm.SwitchContext(p.as, vmm.ViewApp)
	k.runPendingHandlers(p)
}

// --- User-mode memory access ------------------------------------------------

// access performs a fault-handled memory access in the application view.
func (c *UserCtx) access(va mach.Addr, buf []byte, write bool) {
	p, k := c.p, c.k
	for {
		var err error
		if write {
			err = k.vmm.WriteVirt(p.as, vmm.ViewApp, va, buf, true)
		} else {
			err = k.vmm.ReadVirt(p.as, vmm.ViewApp, va, buf, true)
		}
		if err == nil {
			return
		}
		// ReadVirt and WriteVirt return a guest fault unwrapped; a type
		// assertion, unlike errors.As, costs no allocation per fault.
		if fault, ok := err.(*mmu.Fault); ok {
			// Page fault: trap to the kernel to service it.
			sp := k.world.CPU().Begin(obs.KindPageFault, "app", uint64(va))
			p.thread.EnterKernel(vmm.TrapFault)
			k.vmm.SwitchContext(p.as, vmm.ViewSystem)
			errno := k.handleFault(p, fault)
			xerr := p.thread.ExitKernel()
			k.vmm.SwitchContext(p.as, vmm.ViewApp)
			sp.End()
			if xerr != nil {
				k.exitCurrent(p, 128+int(SIGKILL))
			}
			if errno != OK {
				// Genuine segfault.
				k.exitCurrent(p, 128+11)
			}
			// Trap exit is a quiescent point: the fault is fully serviced
			// and the access has not yet retried. No-op unless a migration
			// hook is armed and due.
			k.fireMigrationHook()
			continue
		}
		var sv *vmm.SecViolation
		if errors.As(err, &sv) {
			// The VMM refused the access: the OS corrupted this process's
			// protected memory (or the domain is already quarantined).
			// Terminate; the event is in the audit log.
			k.exitCurrent(p, 128+int(SIGKILL))
		}
		var rf *vmm.ResourceFault
		if errors.As(err, &rf) {
			// Unservable resource fault (e.g. a guest PTE pointing beyond
			// guest memory): the bus-error analogue. Kill the process;
			// the machine keeps running.
			k.exitCurrent(p, 128+11)
		}
		panic(fmt.Sprintf("guestos: unexpected access error: %v", err))
	}
}

// ReadMem implements Env.
func (c *UserCtx) ReadMem(va mach.Addr, buf []byte) { c.access(va, buf, false) }

// WriteMem implements Env.
func (c *UserCtx) WriteMem(va mach.Addr, buf []byte) { c.access(va, buf, true) }

// Load64 implements Env.
func (c *UserCtx) Load64(va mach.Addr) uint64 {
	var b [8]byte
	c.access(va, b[:], false)
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Store64 implements Env.
func (c *UserCtx) Store64(va mach.Addr, val uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(val >> (8 * i))
	}
	c.access(va, b[:], true)
}

// --- The trap path ------------------------------------------------------------

// trap performs one complete syscall round trip: registers loaded, secure
// control transfer in, kernel handler, secure control transfer out,
// preemption check, signal delivery. handler reads its arguments from the
// (possibly scrubbed) kernel-visible registers.
func (c *UserCtx) trap(no Sysno, args [5]uint64, handler func(kregs *vmm.Regs) uint64) uint64 {
	p, k := c.p, c.k
	k.reapKilledAtSafePoint(p)
	p.thread.Regs.GPR[0] = uint64(no)
	copy(p.thread.Regs.GPR[1:], args[:])
	sp := k.world.CPU().Begin(obs.KindSyscall, no.String(), uint64(p.pid))
	kregs := p.thread.EnterKernel(vmm.TrapSyscall)
	k.world.CPU().ChargeAdd(0, sim.CtrSyscall, 1)
	k.vmm.SwitchContext(p.as, vmm.ViewSystem)
	if k.Adversary.OnSyscall != nil {
		k.Adversary.OnSyscall(k, p, Sysno(kregs.GPR[0]), kregs)
	}
	ret := handler(kregs)
	kregs.GPR[0] = ret
	if k.Adversary.OnSysRet != nil {
		// Iago window: the handler is done, the return value sits in the one
		// register ExitKernel lets flow back. A malicious kernel forges it
		// here; the shim's validation layer must catch the lie.
		k.Adversary.OnSysRet(k, p, no, kregs)
	}
	if err := p.thread.ExitKernel(); err != nil {
		var sv *vmm.SecViolation
		if !errors.As(err, &sv) {
			panic(err)
		}
		if sv.Event.Kind == vmm.EventQuarantine {
			// The domain was quarantined mid-syscall; the CTC is revoked
			// and the thread may never resume. Fatal for the process only.
			k.exitCurrent(p, 128+int(SIGKILL))
		}
		// CTC tamper: logged by the VMM; the thread resumed with genuine
		// state, so execution continues safely.
	}
	k.vmm.SwitchContext(p.as, vmm.ViewApp)
	sp.End()
	k.maybePreempt(p)
	k.runPendingHandlers(p)
	return p.thread.Regs.GPR[0]
}

// call wraps trap for the common value-or-errno pattern.
func (c *UserCtx) call(no Sysno, args [5]uint64, handler func(kregs *vmm.Regs) uint64) (uint64, Errno) {
	return DecodeRet(c.trap(no, args, handler))
}

// --- Kernel-side user buffer helpers -----------------------------------------

// copyIn copies the n bytes of user memory at va (system view) into p's
// kernel I/O buffer, servicing demand faults. For cloaked pages this reads
// ciphertext — which is exactly why unmarshalled syscalls on cloaked buffers
// return garbage and the shim must interpose. The buffer starts at what p's
// mappings cover from va and grows only by pages the copy has read, so a
// length register sizes no host allocation beyond what the guest mapped; a
// copy of at most a page fills the task's own buffer (Proc.ioBuf).
// The copy moves one page per ReadVirt, exactly as one ReadVirt of the whole
// range does, and a serviced fault restarts it from va, as copyOut does.
func (k *Kernel) copyIn(p *Proc, va mach.Addr, n uint64) ([]byte, Errno) {
	buf := p.ioBuf(p.mapped(va, n))
	for off := uint64(0); off < n; {
		chunk := min(mach.PageSize-mach.PageOffset(va+mach.Addr(off)), n-off)
		var err error
		if off < uint64(len(buf)) {
			err = k.vmm.ReadVirt(p.as, vmm.ViewSystem, va+mach.Addr(off), buf[off:off+chunk], false)
		} else {
			// Past the mapped prefix a page joins buf only once read, so
			// the fault that usually ends the copy there allocates nothing
			// (and a copy of at most a page stays in the task's buffer).
			var page [mach.PageSize]byte
			if err = k.vmm.ReadVirt(p.as, vmm.ViewSystem, va+mach.Addr(off), page[:chunk], false); err == nil {
				buf = append(buf, page[:chunk]...)
			}
		}
		if err != nil {
			if errno := k.serviceFault(p, err); errno != OK {
				return nil, errno
			}
			off = 0
			continue
		}
		off += chunk
	}
	return buf, OK
}

// copyOut copies a kernel buffer into user memory (system view), servicing
// demand faults; a serviced fault restarts the copy from va.
func (k *Kernel) copyOut(p *Proc, va mach.Addr, buf []byte) Errno {
	for {
		err := k.vmm.WriteVirt(p.as, vmm.ViewSystem, va, buf, false)
		if err == nil {
			return OK
		}
		if errno := k.serviceFault(p, err); errno != OK {
			return errno
		}
	}
}

// serviceFault handles the error of a kernel copy through the system view:
// OK means the fault was serviced and the copy should retry; a fault the
// kernel cannot service is EFAULT.
func (k *Kernel) serviceFault(p *Proc, err error) Errno {
	if fault, ok := err.(*mmu.Fault); ok {
		if errno := k.handleFault(p, fault); errno != OK {
			return EFAULT
		}
		return OK
	}
	var rf *vmm.ResourceFault
	if errors.As(err, &rf) {
		// Corrupt guest PTE behind this buffer: the kernel treats the
		// access like a wild pointer.
		return EFAULT
	}
	// Security violations cannot happen in the system view (the kernel
	// always gets *some* view); anything else is a simulator bug.
	panic(fmt.Sprintf("guestos: unexpected copy error: %v", err))
}

// --- Signal delivery ----------------------------------------------------------

func (k *Kernel) runPendingHandlers(p *Proc) {
	if p.inHandler {
		return
	}
	for len(p.sigPending) > 0 {
		sig := p.sigPending[0]
		p.sigPending = p.sigPending[1:]
		h, ok := p.sigHandlers[sig]
		if !ok {
			switch sig {
			case SIGTERM:
				k.exitCurrent(p, 128+int(sig))
			default:
				// Default action for the rest: ignore.
			}
			continue
		}
		p.inHandler = true
		h(p.userCtx, sig)
		p.inHandler = false
	}
}
