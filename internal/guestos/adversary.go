package guestos

import "overshadow/internal/vmm"

// Adversary turns the guest kernel actively malicious. Each hook, when
// non-nil, runs at the corresponding kernel code path with full kernel
// privileges: the direct physical map, every process's system view, the
// swap device, and the register state traps expose. The hooks record what
// the "malicious OS" manages to observe so the security experiments (E8)
// can assert that cloaked data stays ciphertext and tampering is detected.
//
// The zero value is a benign kernel.
type Adversary struct {
	// OnSyscall runs at syscall dispatch with the registers the kernel
	// sees (post-scrub for cloaked threads).
	OnSyscall func(k *Kernel, p *Proc, no Sysno, kregs *vmm.Regs)
	// OnWriteData sees every buffer the kernel receives from write(2)
	// after copyin — ciphertext for properly marshalled cloaked I/O is
	// *not* what flows here; this observes what the kernel can see. data
	// is the task's reused kernel I/O buffer, valid only during the call:
	// a hook that keeps the bytes must copy them.
	OnWriteData func(k *Kernel, p *Proc, fd int, data []byte)
	// OnPageOut sees (and may mutate) the page image about to hit swap.
	OnPageOut func(k *Kernel, p *Proc, vpn uint64, frame []byte)
	// OnPageIn sees (and may mutate) the page image just read from swap.
	OnPageIn func(k *Kernel, p *Proc, vpn uint64, frame []byte)
	// OnSysRet runs after the syscall handler has written its return value
	// into kregs.GPR[0] but before the thread exits the kernel. Mutating
	// kregs.GPR[0] here forges the one register the VMM legitimately lets
	// flow back into a cloaked context — the Iago attack channel.
	OnSysRet func(k *Kernel, p *Proc, no Sysno, kregs *vmm.Regs)
	// OnIntrospect runs when the hypervisor-side introspection monitor asks
	// the kernel for its object state (run queues, region tables). Mutating
	// the claims models a rootkit-style kernel lying to the introspector:
	// hiding tasks, forging regions. The monitor compares whatever comes
	// back against VMM ground truth.
	OnIntrospect func(k *Kernel, claims *vmm.IntrospectClaims)

	// Leaked records that some hook observed cloaked plaintext. Attack
	// implementations set it; the harness asserts it stays false.
	Leaked bool
}
