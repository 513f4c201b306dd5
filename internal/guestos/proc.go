package guestos

import (
	"fmt"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/obs"
	"overshadow/internal/ordered"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Canonical address-space layout (in VPNs). The layout is identical for
// every process, which keeps the shim's region registrations trivial.
const (
	LayoutHeapBase   uint64 = 0x00100 // heap grows up from here
	LayoutHeapMax    uint64 = 0x10000 // exclusive heap limit
	LayoutMmapBase   uint64 = 0x20000 // mmap area grows up from here
	LayoutMmapMax    uint64 = 0x80000
	LayoutScratch    uint64 = 0xD0000 // shim's uncloaked marshalling buffer
	LayoutScratchLen uint64 = 64      // pages
	LayoutStackTop   uint64 = 0xF0000 // stack grows down from here (exclusive)
	LayoutStackMax   uint64 = 1024    // max stack pages
)

type procState uint8

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateZombie
)

// procExit is the panic sentinel that unwinds a task goroutine when the
// task terminates (exit syscall, thread exit, fatal signal, security kill).
type procExit struct{ status int }

// procShared is the state all threads of one process share: the address
// space, memory layout, descriptors, children, signals, and process-exit
// bookkeeping. A single-threaded process is a group of one.
type procShared struct {
	leader *Proc

	as  *vmm.AddressSpace
	gpt *mmu.PageTable

	vmas          []*VMA
	brk           uint64 // next free heap VPN
	mmapPtr       uint64 // next free mmap VPN
	swapped       map[uint64]uint64
	residentPages int

	fds []*FileDesc

	children map[Pid]*Proc

	sigHandlers map[Signal]SigHandler
	sigPending  []Signal
	inHandler   bool

	// exitHooks run once, when the process (not an individual thread)
	// terminates, before any resource teardown. The shim registers its
	// domain teardown here.
	exitHooks []func()

	threads     []*Proc
	liveThreads int
	exiting     bool
	exitStatus  int
	done        bool // teardown complete; waitpid may reap
}

// Proc is one schedulable task: a process leader or one of its threads.
// Threads share everything in procShared; each task has its own register
// context (and, when cloaked, its own cloaked thread context in the VMM —
// secure control transfer is per-thread, exactly as in the paper).
type Proc struct {
	pid, ppid Pid
	name      string
	args      []string
	cloaked   bool
	isThread  bool // true for non-leader tasks

	kernel *Kernel
	thread *vmm.Thread

	*procShared

	state     procState
	blockedOn string
	killed    bool
	waiters   []*Proc // waitpid waiters (leaders) or joiners (threads)

	// home is the index of the vCPU this task is queued on and dispatches to.
	// Assigned round-robin at creation; rebalance() migrates it. Always 0 on
	// a single-vCPU machine.
	home int

	sliceStart sim.Cycles
	baton      chan struct{}

	// userCtx is the kernel-level environment handle (shim wraps it for
	// cloaked processes).
	userCtx *UserCtx

	// Set when exec replaces the program image.
	execNext func(*UserCtx)

	// iobuf is the task's kernel I/O buffer (see ioBuf). It is per task,
	// not per kernel: a write can block in pipeWrite with its copied-in
	// bytes still pending while other tasks run their own syscalls.
	iobuf []byte
}

// ioBuf returns an n-byte kernel buffer for one syscall's transfer. A
// transfer of at most a page reuses the task's one-page buffer, so
// steady-state I/O allocates no host memory; a larger one gets a buffer of
// its own for the call. The bytes are valid until the task's next syscall.
func (p *Proc) ioBuf(n uint64) []byte {
	if n > mach.PageSize {
		return make([]byte, n)
	}
	if p.iobuf == nil {
		p.iobuf = make([]byte, mach.PageSize)
	}
	return p.iobuf[:n]
}

// AddExitHook registers fn to run when the process exits. Used by the shim.
func (p *Proc) AddExitHook(fn func()) {
	p.procShared.exitHooks = append(p.procShared.exitHooks, fn)
}

// ClearExitHooks drops all registered hooks (used by the shim across exec).
func (p *Proc) ClearExitHooks() { p.procShared.exitHooks = nil }

// SigHandler is a user-registered signal handler.
type SigHandler func(Env, Signal)

// Pid returns the task id (process id for leaders, thread id otherwise).
func (p *Proc) Pid() Pid { return p.pid }

// Name returns the program name.
func (p *Proc) Name() string { return p.name }

// Cloaked reports whether the process runs in a protection domain.
func (p *Proc) Cloaked() bool { return p.cloaked }

// IsThread reports whether this task is a non-leader thread.
func (p *Proc) IsThread() bool { return p.isThread }

// AddressSpace exposes the VMM handle; used only by the trusted shim.
func (p *Proc) AddressSpace() *vmm.AddressSpace { return p.as }

func (k *Kernel) newProc(ppid Pid, cloaked bool, name string, args []string) *Proc {
	k.nextPid++
	gpt := mmu.NewPageTable()
	sh := &procShared{
		gpt:         gpt,
		as:          k.vmm.CreateAddressSpace(gpt),
		swapped:     make(map[uint64]uint64),
		fds:         make([]*FileDesc, maxFDs),
		children:    make(map[Pid]*Proc),
		sigHandlers: make(map[Signal]SigHandler),
		brk:         LayoutHeapBase,
		mmapPtr:     LayoutMmapBase,
		liveThreads: 1,
	}
	p := &Proc{
		pid:        k.nextPid,
		ppid:       ppid,
		name:       name,
		args:       args,
		cloaked:    cloaked,
		kernel:     k,
		procShared: sh,
		baton:      make(chan struct{}, 1),
		home:       k.placeCPU(),
	}
	sh.leader = p
	sh.threads = []*Proc{p}
	p.setupStandardVMAs()
	p.userCtx = &UserCtx{p: p, k: k}
	k.procs[p.pid] = p
	k.liveProcs++
	if parent, ok := k.procs[ppid]; ok {
		parent.children[p.pid] = p
	}
	return p
}

// createThread adds a thread to p's group and schedules it.
func (k *Kernel) createThread(p *Proc, runner func(*UserCtx)) Pid {
	k.nextPid++
	sh := p.procShared
	t := &Proc{
		pid:        k.nextPid,
		ppid:       sh.leader.pid,
		name:       sh.leader.name + "#thr",
		args:       sh.leader.args,
		cloaked:    p.cloaked,
		isThread:   true,
		kernel:     k,
		procShared: sh,
		baton:      make(chan struct{}, 1),
		home:       k.placeCPU(),
	}
	t.userCtx = &UserCtx{p: t, k: k}
	k.procs[t.pid] = t
	k.liveProcs++
	sh.threads = append(sh.threads, t)
	sh.liveThreads++
	k.startProcGoroutine(t, func(uc *UserCtx) {
		runner(uc)
		k.exitThread(t)
	})
	k.makeRunnable(t)
	return t.pid
}

func (p *Proc) setupStandardVMAs() {
	p.procShared.vmas = []*VMA{
		{Base: LayoutHeapBase, Pages: 0, Kind: VMAHeap, Writable: true},
		{Base: LayoutScratch, Pages: LayoutScratchLen, Kind: VMAScratch, Writable: true},
		{Base: LayoutStackTop - LayoutStackMax, Pages: LayoutStackMax, Kind: VMAStack, Writable: true},
	}
}

// startProcGoroutine launches the goroutine that will execute the task
// whenever it holds the scheduler baton.
func (k *Kernel) startProcGoroutine(p *Proc, runner func(*UserCtx)) {
	p.thread = k.vmm.CreateThread(0)
	//overlint:allow determinism -- baton-scheduled: the goroutine runs only while holding p.baton, so exactly one task executes at a time
	go func() {
		<-p.baton // wait to be scheduled the first time
		p.state = stateRunning
		p.sliceStart = k.world.Now()
		k.vmm.SwitchContext(p.as, vmm.ViewApp)
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, isExit := r.(procExit); isExit {
				// Bookkeeping already done by the exit path; just leave.
				return
			}
			// A real bug escaped a process body: surface it in Run.
			if k.panicked == nil {
				k.panicked = r
			}
			select {
			case <-k.done:
			default:
				close(k.done)
			}
		}()
		for {
			// Run one image; exec unwinds it with the execReplace sentinel
			// and leaves the next image in p.execNext.
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, isExec := r.(execReplace); !isExec {
							panic(r)
						}
					}
				}()
				runner(p.userCtx)
				// Normal return never happens: program runners end in
				// exitCurrent (procExit panic) or exec (execReplace panic).
				panic("guestos: program runner returned without exit")
			}()
			runner = p.execNext
			p.execNext = nil
		}
	}()
}

// exitCurrent terminates the calling task's whole process: every sibling
// thread is marked for termination, and the calling thread exits. Must run
// on p's goroutine.
func (k *Kernel) exitCurrent(p *Proc, status int) {
	sh := p.procShared
	if !sh.exiting {
		sh.exiting = true
		sh.exitStatus = status
		for _, t := range sh.threads {
			if t != p && t.state != stateZombie {
				t.killed = true
				k.wake(t)
			}
		}
	}
	k.exitThread(p)
}

// exitThread terminates the calling thread. The last thread out performs
// the process-level teardown. Never returns.
func (k *Kernel) exitThread(p *Proc) {
	k.world.CPU().Emit(obs.KindProc, "exit", uint64(p.pid))
	k.vmm.DestroyThread(p.thread)
	p.state = stateZombie
	p.iobuf = nil
	delete(k.procs, p.pid)
	k.liveProcs--
	sh := p.procShared
	// Capture the status while this goroutine still holds the baton: once
	// switchTo hands it off below, a sibling thread may run exitCurrent and
	// write sh.exitStatus while this dying goroutine is still unwinding.
	status := sh.exitStatus
	sh.liveThreads--
	for _, w := range p.waiters {
		k.wake(w)
	}
	p.waiters = nil

	if sh.liveThreads == 0 {
		k.finishProcessExit(sh)
	}

	if k.liveProcs == 0 {
		close(k.done)
		panic(procExit{status: status})
	}
	next := k.pickNext()
	k.switchTo(next, p, false)
	panic(procExit{status: status})
}

// finishProcessExit runs once per process, on the goroutine of its last
// thread: shim hooks, descriptor close, address-space release, and parent
// notification.
func (k *Kernel) finishProcessExit(sh *procShared) {
	leader := sh.leader
	for _, h := range sh.exitHooks {
		h()
	}
	sh.exitHooks = nil
	for fd, f := range sh.fds {
		if f != nil {
			//overlint:allow errnodiscipline -- process teardown: fd is live by construction and there is no caller to report to
			k.closeFD(leader, fd)
		}
	}
	k.releaseAddressSpace(leader)
	sh.done = true

	// Orphan our children onto pid 0.
	for _, pid := range ordered.Keys(sh.children) {
		sh.children[pid].ppid = 0
	}
	// Notify a waiting parent.
	for _, w := range leader.waiters {
		k.wake(w)
	}
	leader.waiters = nil
}

// releaseAddressSpace frees all memory of p's process: resident frames,
// swap slots, shadow state.
func (k *Kernel) releaseAddressSpace(p *Proc) {
	sh := p.procShared
	sh.gpt.Range(func(vpn uint64, pte mmu.PTE) bool {
		gppn := mach.GPPN(pte.PN)
		if k.mem.release(gppn) {
			k.vmm.NotifyFrameRecycled(gppn)
			k.mem.free(gppn)
		}
		return true
	})
	sh.gpt.Clear()
	// Free the swap slots in page order: the free list hands out the most
	// recently freed slot first, so this order picks the next page-outs'
	// slots.
	for _, vpn := range ordered.Keys(sh.swapped) {
		k.swap.free(sh.swapped[vpn])
	}
	sh.swapped = make(map[uint64]uint64)
	k.vmm.DestroyAddressSpace(sh.as)
	sh.vmas = nil
}

// --- fork / exec / wait / threads -------------------------------------------

// forkProc implements fork. childRunner is the continuation the child
// executes (Go cannot snapshot a goroutine, so the child body is explicit —
// memory contents, file descriptors, and identity are copied faithfully).
// Only the calling thread is duplicated, as in POSIX. onPrepared runs after
// the child address space is fully built but before the child is runnable;
// the shim uses it to re-cloak the child via hypercall.
func (k *Kernel) forkProc(p *Proc, childRunner func(*UserCtx), onPrepared func(parent, child *vmm.AddressSpace) error) (Pid, Errno) {
	k.world.CPU().ChargeAdd(0, sim.CtrFork, 1)
	k.world.CPU().Emit(obs.KindProc, "fork", uint64(p.pid))
	child := k.newProc(p.procShared.leader.pid, p.cloaked, p.name, p.args)
	child.procShared.brk = p.brk
	child.procShared.mmapPtr = p.mmapPtr

	// Clone the VMA table.
	child.procShared.vmas = nil
	for _, v := range p.vmas {
		c := *v
		child.procShared.vmas = append(child.procShared.vmas, &c)
	}

	// Duplicate file descriptors (shared offsets, like POSIX).
	for i, f := range p.fds {
		if f != nil {
			child.fds[i] = f
			f.refs++
			if f.pipe != nil {
				f.pipe.addRef(f.writeEnd)
			}
		}
	}

	// Copy memory. Cloaked processes are copied eagerly (the kernel only
	// ever sees ciphertext); native processes get COW.
	if err := k.copyAddressSpace(p, child); err != OK {
		k.destroyStillborn(child)
		return 0, err
	}

	if onPrepared != nil {
		if err := onPrepared(p.as, child.as); err != nil {
			k.destroyStillborn(child)
			return 0, EPERM
		}
	}

	k.startProcGoroutine(child, func(uc *UserCtx) {
		childRunner(uc)
		k.exitCurrent(child, 0)
	})
	k.makeRunnable(child)
	return child.pid, OK
}

// destroyStillborn unwinds a child that failed mid-fork.
func (k *Kernel) destroyStillborn(c *Proc) {
	for fd, f := range c.fds {
		if f != nil {
			//overlint:allow errnodiscipline -- fork unwinding: fd is live by construction and there is no caller to report to
			k.closeFD(c, fd)
		}
	}
	k.releaseAddressSpace(c)
	delete(k.procs, c.pid)
	if parent, ok := k.procs[c.ppid]; ok {
		delete(parent.children, c.pid)
	}
	k.liveProcs--
}

func (k *Kernel) copyAddressSpace(p, child *Proc) Errno {
	if p.cloaked {
		// Eager copy: each resident parent page is read through the
		// kernel's direct map (forcing encryption of plaintext pages) and
		// written into a fresh frame for the child.
		buf := make([]byte, mach.PageSize)
		var failed Errno
		p.gpt.Range(func(vpn uint64, pte mmu.PTE) bool {
			gppn := mach.GPPN(pte.PN)
			newG, errno := k.allocUserPage(child, vpn)
			if errno != OK {
				failed = errno
				return false
			}
			if err := k.vmm.PhysRead(gppn, 0, buf); err != nil {
				failed = EIO
				return false
			}
			if err := k.vmm.PhysWrite(newG, 0, buf); err != nil {
				failed = EIO
				return false
			}
			child.mapUserPage(vpn, newG, pte.Flags.Has(mmu.FlagWritable))
			return true
		})
		if failed != OK {
			return failed
		}
	} else {
		// Native: COW. Share frames read-only; copy on first write fault.
		p.gpt.Range(func(vpn uint64, pte mmu.PTE) bool {
			gppn := mach.GPPN(pte.PN)
			k.mem.share(gppn)
			if pte.Flags.Has(mmu.FlagWritable) {
				p.gpt.ClearFlags(vpn, mmu.FlagWritable)
				k.vmm.InvalidateGuestMapping(p.as, vpn)
			}
			child.gpt.Map(vpn, mmu.PTE{PN: pte.PN,
				Flags: pte.Flags &^ mmu.FlagWritable})
			child.procShared.residentPages++
			k.noteResident(child, vpn)
			return true
		})
	}
	// Swapped-out pages: duplicate the swap slots, in page order so the
	// child's slots are a function of the parent's.
	for _, vpn := range ordered.Keys(p.swapped) {
		nblk, ok := k.swap.dup(p.swapped[vpn])
		if !ok {
			return ENOSPC
		}
		child.swapped[vpn] = nblk
	}
	return OK
}

// execProc replaces the process image with the named program. The address
// space is rebuilt from scratch; fds and pid survive. Sibling threads are
// terminated, POSIX-style.
func (k *Kernel) execProc(p *Proc, name string, args []string) Errno {
	body, ok := k.programs[name]
	if !ok {
		return ENOENT
	}
	k.world.CPU().ChargeAdd(0, sim.CtrExec, 1)
	sh := p.procShared
	for _, t := range sh.threads {
		if t != p && t.state != stateZombie {
			t.killed = true
			k.wake(t)
		}
	}
	k.releaseAddressSpace(p)
	sh.gpt = mmu.NewPageTable()
	sh.as = k.vmm.CreateAddressSpace(sh.gpt)
	sh.brk = LayoutHeapBase
	sh.mmapPtr = LayoutMmapBase
	p.setupStandardVMAs()
	p.name = name
	p.args = args
	sh.sigHandlers = make(map[Signal]SigHandler)
	sh.sigPending = nil
	p.execNext = k.programRunner(p, body)
	return OK
}

// waitPid implements waitpid semantics. pid < 0 means "any child".
func (k *Kernel) waitPid(p *Proc, pid Pid) (Pid, int, Errno) {
	for {
		// The children waited for, lowest pid first.
		var pids []Pid
		if pid > 0 {
			if _, ok := p.children[pid]; ok {
				pids = []Pid{pid}
			}
		} else {
			pids = ordered.Keys(p.children)
		}
		if len(pids) == 0 {
			return 0, 0, ECHILD
		}
		for _, cpid := range pids {
			if c := p.children[cpid]; c.procShared.done {
				delete(p.children, cpid)
				delete(k.procs, cpid)
				return cpid, c.procShared.exitStatus, OK
			}
		}
		// Block until one of them exits.
		for _, cpid := range pids {
			c := p.children[cpid]
			c.waiters = append(c.waiters, p)
		}
		k.block(p, "waitpid")
	}
}

// joinThread blocks until the thread tid of p's group has exited.
func (k *Kernel) joinThread(p *Proc, tid Pid) Errno {
	sh := p.procShared
	var target *Proc
	for _, t := range sh.threads {
		if t.pid == tid && t.isThread {
			target = t
			break
		}
	}
	if target == nil || target == p {
		return ESRCH
	}
	for target.state != stateZombie {
		target.waiters = append(target.waiters, p)
		k.block(p, "join")
	}
	return OK
}

// killProc delivers a signal. SIGKILL terminates the target's whole
// process group of threads.
func (k *Kernel) killProc(p *Proc, target Pid, sig Signal) Errno {
	t, ok := k.procs[target]
	if !ok || t.state == stateZombie {
		return ESRCH
	}
	if sig == SIGKILL {
		if t.procShared == p.procShared {
			k.exitCurrent(p, 128+int(SIGKILL))
		}
		for _, th := range t.procShared.threads {
			if th.state != stateZombie {
				th.killed = true
				k.wake(th)
			}
		}
		return OK
	}
	t.procShared.sigPending = append(t.procShared.sigPending, sig)
	k.world.CPU().ChargeAdd(0, sim.CtrSignalDeliver, 1)
	k.wake(t.procShared.leader)
	return OK
}

// reapKilledAtSafePoint terminates the calling task if it was marked
// killed by another task.
func (k *Kernel) reapKilledAtSafePoint(p *Proc) {
	if p.killed {
		k.exitCurrent(p, 128+int(SIGKILL))
	}
}

// String renders a task for diagnostics.
func (p *Proc) String() string {
	kind := "proc"
	if p.isThread {
		kind = "thread"
	}
	return fmt.Sprintf("%s pid=%d %q cloaked=%v state=%d", kind, p.pid, p.name, p.cloaked, p.state)
}
