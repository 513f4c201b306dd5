package vmm

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// Regs is the architected register file of a simulated thread. GPR[0] holds
// the syscall number on entry and the return value on exit; GPR[1..5] carry
// syscall arguments. Everything else is private computation state.
type Regs struct {
	PC  uint64
	SP  uint64
	GPR [6]uint64
}

// ThreadID identifies a hardware thread context known to the VMM.
type ThreadID uint32

// TrapKind distinguishes synchronous syscalls from asynchronous interrupts;
// the scrub policy differs (a syscall deliberately exposes its argument
// registers, an interrupt exposes nothing).
type TrapKind uint8

// Trap kinds.
const (
	TrapSyscall TrapKind = iota
	TrapInterrupt
	TrapFault
)

// String implements fmt.Stringer.
func (k TrapKind) String() string {
	switch k {
	case TrapSyscall:
		return "syscall"
	case TrapInterrupt:
		return "interrupt"
	case TrapFault:
		return "fault"
	}
	return "?"
}

// Thread is the VMM's per-thread state: the live register file plus, for
// cloaked threads, the saved cloaked thread context (CTC) that implements
// secure control transfer. While a cloaked thread is in a trap, the kernel
// sees (and may scribble on) t.Regs — but only the return-value register
// flows back into the application; everything else is restored from the CTC
// and tamper attempts are detected by comparing against the exposure
// snapshot taken at trap entry.
//
// A Thread runs on exactly one vCPU at a time, but the CTC handoff may span
// two: save on one CPU, restore on another after the guest scheduler
// migrates the thread. A cross-CPU resume is a typed, audited outcome
// (EventCTCMigrate), never a panic: verification runs identically wherever
// the thread lands.
type Thread struct {
	ID     ThreadID
	Domain cloak.DomainID // 0 = uncloaked thread
	Regs   Regs           // live registers as the current mode sees them

	vmm *VMM

	ctc     Regs // saved full context while the kernel runs
	exposed Regs // post-scrub snapshot of what the kernel was shown
	inTrap  bool
	trap    TrapKind
	pending bool // CTC currently holds a valid saved context
	// savedCPU is the vCPU the CTC was saved on; compared at restore to
	// detect (and audit) cross-CPU handoff.
	savedCPU int
}

// CreateThread allocates a thread context. domain 0 creates an ordinary
// (uncloaked) thread.
func (v *VMM) CreateThread(domain cloak.DomainID) *Thread {
	v.nextThread++
	t := &Thread{ID: v.nextThread, Domain: domain, vmm: v}
	v.threads[t.ID] = t
	return t
}

// DestroyThread forgets a thread context.
func (v *VMM) DestroyThread(t *Thread) { delete(v.threads, t.ID) }

// Cloaked reports whether the thread belongs to a protection domain.
func (t *Thread) Cloaked() bool { return t.Domain != 0 }

// InTrap reports whether the thread is currently between EnterKernel and
// ExitKernel.
func (t *Thread) InTrap() bool { return t.inTrap }

// revoke clears the thread's saved context and scrubs its registers —
// quarantine containment. Returns nothing the caller could misuse: the CTC
// is gone.
func (t *Thread) revoke() {
	t.ctc = Regs{}
	t.exposed = Regs{}
	t.Regs = Regs{}
	t.pending = false
}

// EnterKernel performs the guest-user to guest-kernel crossing. For cloaked
// threads the VMM interposes: it saves the full register file into the CTC
// and scrubs what the kernel must not see. The returned *Regs is the view
// the kernel handler receives (and may legitimately modify: GPR[0] carries
// the return value back).
func (t *Thread) EnterKernel(kind TrapKind) *Regs {
	v := t.vmm
	c := v.cpu()
	t.inTrap = true
	t.trap = kind
	c.ChargeAdd(v.world.Cost.SyscallTrap, sim.CtrTrap, 0)
	if !t.Cloaked() {
		return &t.Regs
	}
	// Cloaked: the trap bounces through the VMM (world switch in).
	c.ChargeCount(v.world.Cost.WorldSwitch, sim.CtrWorldSwitch)
	c.EmitSpan(obs.KindWorldSwitch, "guest->vmm", uint64(t.ID), v.world.Cost.WorldSwitch)
	t.ctc = t.Regs
	t.pending = true
	t.savedCPU = c.ID()
	c.ChargeCount(v.world.Cost.CTCSave, sim.CtrCTCSave)
	c.EmitSpan(obs.KindCTC, "save", uint64(t.ID), v.world.Cost.CTCSave)
	switch kind {
	case TrapSyscall:
		// Expose only the syscall number and arguments (which the shim has
		// already marshalled to point at uncloaked memory); scrub the rest.
		t.Regs.PC = 0
		t.Regs.SP = 0
	default:
		// Asynchronous interrupt or fault: the kernel needs nothing from
		// the register file. Scrub it all.
		t.Regs = Regs{}
	}
	t.exposed = t.Regs
	c.ChargeCount(v.world.Cost.WorldSwitch, sim.CtrWorldSwitch)
	c.EmitSpan(obs.KindWorldSwitch, "vmm->guest", uint64(t.ID), v.world.Cost.WorldSwitch)
	return &t.Regs
}

// ExitKernel performs the guest-kernel to guest-user crossing. For cloaked
// threads the VMM restores the saved CTC, folding in the syscall return
// value (GPR[0]) from the kernel's view. If the kernel modified any other
// exposed register, the tamper is logged and reported — but the application
// still resumes with its genuine context, so register-tampering cannot
// influence cloaked execution. Resuming on a different vCPU than the one
// that saved the CTC is legitimate (thread migration) and is audited as
// EventCTCMigrate on multi-vCPU machines.
func (t *Thread) ExitKernel() error {
	v := t.vmm
	c := v.cpu()
	if !t.inTrap {
		return fmt.Errorf("vmm: ExitKernel on thread %d not in a trap", t.ID)
	}
	t.inTrap = false
	c.ChargeAdd(v.world.Cost.SyscallReturn, sim.CtrTrap, 0)
	if !t.Cloaked() {
		return nil
	}
	c.ChargeCount(v.world.Cost.WorldSwitch, sim.CtrWorldSwitch)
	c.EmitSpan(obs.KindWorldSwitch, "guest->vmm", uint64(t.ID), v.world.Cost.WorldSwitch)
	if v.quarantined[t.Domain] {
		// The domain was quarantined while this thread was trapped; its CTC
		// is revoked and the thread must never resume with live state. The
		// kernel delivers this as a fatal fault to the victim process.
		ev := Event{Kind: EventQuarantine, Domain: t.Domain,
			Detail: "resume denied: domain is quarantined"}
		v.logEvent(ev)
		return &SecViolation{Event: ev}
	}
	if !t.pending {
		ev := Event{Kind: EventCTCTamper, Domain: t.Domain,
			Detail: "resume with no saved context"}
		v.logEvent(ev)
		return &SecViolation{Event: ev}
	}
	if t.savedCPU != c.ID() && v.world.NumVCPUs() > 1 {
		detail := fmt.Sprintf("thread %d: CTC saved on cpu%d, restored on cpu%d", t.ID, t.savedCPU, c.ID())
		v.logEvent(Event{Kind: EventCTCMigrate, Domain: t.Domain, Detail: detail})
	}
	var tamperErr error
	cur, snap := t.Regs, t.exposed
	if t.trap == TrapSyscall {
		// GPR[0] legitimately carries the return value.
		cur.GPR[0], snap.GPR[0] = 0, 0
	} else {
		cur.GPR[0], snap.GPR[0] = 0, 0 // interrupts return nothing either
	}
	if cur != snap {
		ev := Event{Kind: EventCTCTamper, Domain: t.Domain,
			Detail: "kernel modified protected registers during trap"}
		v.logEvent(ev)
		tamperErr = &SecViolation{Event: ev}
	}
	restored := t.ctc
	if t.trap == TrapSyscall {
		restored.GPR[0] = t.Regs.GPR[0] // kernel's return value flows through
	}
	t.Regs = restored
	t.pending = false
	c.ChargeCount(v.world.Cost.CTCRestore, sim.CtrCTCRestore)
	c.EmitSpan(obs.KindCTC, "restore", uint64(t.ID), v.world.Cost.CTCRestore)
	c.ChargeCount(v.world.Cost.WorldSwitch, sim.CtrWorldSwitch)
	c.EmitSpan(obs.KindWorldSwitch, "vmm->guest", uint64(t.ID), v.world.Cost.WorldSwitch)
	return tamperErr
}
