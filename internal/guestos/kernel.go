package guestos

import (
	"fmt"

	"overshadow/internal/mach"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Pid identifies a guest process.
type Pid int

// Program is a guest application body. Programs operate on simulated memory
// and syscalls exclusively through the Env they are given; for cloaked
// processes the Env is the shim's, for native processes the kernel's.
type Program func(Env)

// CloakRuntime is injected by the integration layer (package core) to wrap
// cloaked program bodies with the shim. guestos cannot import the shim
// directly (the shim builds on guestos), so the dependency is inverted.
type CloakRuntime func(uc *UserCtx, body Program)

// quantum is the scheduler time slice.
const quantum sim.Cycles = 400_000

// maxFDs is the per-process file-descriptor table size.
const maxFDs = 64

// Config sizes and parameterizes the guest kernel.
type Config struct {
	MemoryPages int    // guest-physical memory size
	SwapPages   uint64 // swap device capacity
	FSDiskPages uint64 // filesystem device capacity
	// SwapDisk, when non-nil, is a pre-built swap device (possibly larger
	// than SwapPages; the pager uses only the first SwapPages blocks). The
	// embedding host uses this to co-locate the VMM's metadata journal on
	// the swap device and to hand a crash-surviving disk to a rebooted
	// machine.
	SwapDisk *mach.Disk
}

// Kernel is the guest operating system instance.
type Kernel struct {
	world *sim.World
	vmm   *vmm.VMM
	cfg   Config

	fs   *FS
	swap *swapSpace
	mem  *gppnAllocator

	// pageBuf is the kernel's page-sized scratch buffer for swap/file/COW
	// transfers; see scratchPage for the reuse argument.
	pageBuf []byte

	procs   map[Pid]*Proc
	nextPid Pid
	// cpus is the per-vCPU scheduler state (one run queue each); current is
	// the task holding the machine-wide baton. Tasks are placed round-robin
	// at creation (nextCPU) and migrate between queues only through
	// rebalance(). schedRNG drives the seeded interleaving choice among
	// non-empty queues; it is consumed only on multi-vCPU machines, so
	// single-vCPU schedules are byte-identical to the pre-SMP kernel.
	cpus     []*kcpu
	nextCPU  int
	schedRNG *sim.RNG
	current  *Proc
	sleepers []*sleeper
	resident residentQueue // global page-replacement candidate list

	shm          map[string]*ShmObj
	programs     map[string]Program
	cloakRuntime CloakRuntime

	Adversary Adversary

	liveProcs int
	running   bool
	crashed   bool // a sim.Crash deadline fired; machine stopped mid-flight
	done      chan struct{}
	panicked  any // first panic escaping a process goroutine, re-raised in Run

	// migrateAt/migrateFn are the one-shot live-migration hook (see
	// SetMigrationHook); fired from fireMigrationHook at the machine's
	// quiescent points.
	migrateAt sim.Cycles
	migrateFn func()
}

// NewKernel boots a guest kernel over a fresh VMM-managed machine.
func NewKernel(world *sim.World, hv *vmm.VMM, cfg Config) *Kernel {
	if cfg.MemoryPages <= 0 || cfg.MemoryPages > hv.GuestPages() {
		panic("guestos: MemoryPages must fit in guest-physical memory")
	}
	if cfg.SwapPages == 0 {
		cfg.SwapPages = 4096
	}
	if cfg.FSDiskPages == 0 {
		cfg.FSDiskPages = 8192
	}
	k := &Kernel{
		world:    world,
		vmm:      hv,
		cfg:      cfg,
		procs:    make(map[Pid]*Proc),
		shm:      make(map[string]*ShmObj),
		programs: make(map[string]Program),
		done:     make(chan struct{}),
		schedRNG: world.DeriveRNG(0x5C4ED), // scheduler interleaving stream
	}
	k.cpus = make([]*kcpu, world.NumVCPUs())
	for i, c := range world.VCPUs() {
		k.cpus[i] = &kcpu{cpu: c}
	}
	k.mem = newGPPNAllocator(cfg.MemoryPages)
	k.swap = newSwapSpace(world, cfg.SwapPages, cfg.SwapDisk)
	k.fs = NewFS(world, cfg.FSDiskPages)
	return k
}

// World returns the simulation services.
func (k *Kernel) World() *sim.World { return k.world }

// VMM returns the hypervisor underneath (tests and the trusted shim use it;
// the kernel itself treats it as hardware).
func (k *Kernel) VMM() *vmm.VMM { return k.vmm }

// FS returns the filesystem, usable before Run to populate files.
func (k *Kernel) FS() *FS { return k.fs }

// SwapDisk exposes the swap block device (read-only use: adversarial tests
// and the E13 leak scan sweep it for plaintext residue).
func (k *Kernel) SwapDisk() *mach.Disk { return k.swap.disk }

// Lookup finds a live (non-reaped) task by pid.
func (k *Kernel) Lookup(pid Pid) (*Proc, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// SetCloakRuntime installs the shim wrapper used for cloaked processes.
func (k *Kernel) SetCloakRuntime(rt CloakRuntime) { k.cloakRuntime = rt }

// RegisterProgram makes a program spawnable and exec-able by name.
func (k *Kernel) RegisterProgram(name string, body Program) {
	k.programs[name] = body
}

// SpawnOpts controls process creation.
type SpawnOpts struct {
	Cloaked bool
}

// Spawn creates a process that will run the named program when the kernel
// runs. It may be called before Run (initial workload) or from within
// syscalls (via fork/exec).
func (k *Kernel) Spawn(name string, opts SpawnOpts) (Pid, error) {
	body, ok := k.programs[name]
	if !ok {
		return 0, fmt.Errorf("guestos: no program %q", name)
	}
	if opts.Cloaked && k.cloakRuntime == nil {
		return 0, fmt.Errorf("guestos: cloaked spawn without a cloak runtime")
	}
	p := k.newProc(0, opts.Cloaked, name, nil)
	runner := k.programRunner(p, body)
	k.startProcGoroutine(p, runner)
	k.makeRunnable(p)
	return p.pid, nil
}

// programRunner wraps a program body with the appropriate runtime (shim for
// cloaked processes) and a final implicit exit.
func (k *Kernel) programRunner(p *Proc, body Program) func(*UserCtx) {
	return func(uc *UserCtx) {
		if p.cloaked {
			k.cloakRuntime(uc, body)
		} else {
			body(uc)
		}
		// Falling off the end of the program is an implicit exit(0).
		k.exitCurrent(p, 0)
	}
}

// Run executes the machine until every process has exited. It must be
// called exactly once, after at least one Spawn.
func (k *Kernel) Run() {
	if k.running {
		panic("guestos: Run called twice")
	}
	k.running = true
	if k.runnable() == 0 {
		return
	}
	first := k.pickNext()
	k.current = first
	k.dispatchAttr(first)
	first.baton <- struct{}{}
	<-k.done
	if k.panicked != nil {
		if sim.IsCrash(k.panicked) {
			// Whole-machine crash: the world stopped at an exact cycle. This
			// is a deliberate simulation event, not a bug — the machine
			// simply ends with its disks frozen as-is. Parked process
			// goroutines stay blocked on their batons until the Kernel is
			// garbage collected; nothing ever sends to them again.
			k.crashed = true
			k.panicked = nil
			return
		}
		panic(k.panicked)
	}
}

// Crashed reports whether the machine stopped via a crash deadline
// (sim.Clock.SetCrashAt) rather than by all processes exiting.
func (k *Kernel) Crashed() bool { return k.crashed }

// --- Scheduler -----------------------------------------------------------

// kcpu is one vCPU's scheduler state: a FIFO run queue of tasks homed on
// that CPU. Execution stays globally serialized by the baton; the queues
// decide which vCPU context the next task runs in.
type kcpu struct {
	cpu  *sim.VCPU
	runq []*Proc
}

type sleeper struct {
	p    *Proc
	wake sim.Cycles
}

// placeCPU assigns a newly created task its home CPU, round-robin. Always 0
// on a single-vCPU machine.
func (k *Kernel) placeCPU() int {
	ci := k.nextCPU % len(k.cpus)
	k.nextCPU++
	return ci
}

func (k *Kernel) makeRunnable(p *Proc) {
	p.state = stateRunnable
	kc := k.cpus[p.home]
	kc.runq = append(kc.runq, p)
}

// runnable reports the total number of queued tasks across all CPUs.
func (k *Kernel) runnable() int {
	n := 0
	for _, kc := range k.cpus {
		n += len(kc.runq)
	}
	return n
}

// dequeueFrom pops the head of CPU ci's run queue. The queue shifts down
// in place (it holds a few tasks), so it keeps its backing array and a
// block/wake cycle allocates nothing.
func (k *Kernel) dequeueFrom(ci int) *Proc {
	kc := k.cpus[ci]
	p := kc.runq[0]
	n := copy(kc.runq, kc.runq[1:])
	kc.runq[n] = nil
	kc.runq = kc.runq[:n]
	return p
}

// rebalance migrates one queued task from the longest run queue (length ≥ 2,
// lowest index on ties) to the lowest-index idle CPU (empty queue), keeping
// all CPUs busy when work is available. Each migration re-homes the task —
// its next dispatch runs on the new vCPU, refilling that CPU's TLB and
// shadow state — and counts under CtrMigration. Never runs on a single-vCPU
// machine.
func (k *Kernel) rebalance() {
	if len(k.cpus) == 1 {
		return
	}
	for {
		longest, idle := -1, -1
		for i, kc := range k.cpus {
			if len(kc.runq) == 0 && idle == -1 {
				idle = i
			}
			if len(kc.runq) >= 2 && (longest == -1 || len(kc.runq) > len(k.cpus[longest].runq)) {
				longest = i
			}
		}
		if longest == -1 || idle == -1 {
			return
		}
		src := k.cpus[longest]
		p := src.runq[len(src.runq)-1]
		src.runq = src.runq[:len(src.runq)-1]
		p.home = idle
		k.cpus[idle].runq = append(k.cpus[idle].runq, p)
		c := k.world.CPU()
		c.ChargeAdd(0, sim.CtrMigration, 1)
		c.Emit(obs.KindProc, "migrate", uint64(p.pid))
	}
}

// chooseCPU picks which CPU's queue head runs next. With one candidate the
// choice is forced; with several, the seeded scheduler stream picks among
// them — the deterministic interleaving schedule. The stream is consumed
// only when a real choice exists, so single-vCPU machines never touch it.
func (k *Kernel) chooseCPU() int {
	if len(k.cpus) == 1 {
		return 0
	}
	first := -1
	n := 0
	for i, kc := range k.cpus {
		if len(kc.runq) > 0 {
			if first == -1 {
				first = i
			}
			n++
		}
	}
	if n <= 1 {
		return first
	}
	pick := k.schedRNG.Intn(n)
	for i, kc := range k.cpus {
		if len(kc.runq) > 0 {
			if pick == 0 {
				return i
			}
			pick--
		}
	}
	return first
}

// wakeDueSleepers moves every sleeper whose deadline has passed onto the
// run queue. Called at scheduling points so a compute-bound process cannot
// starve timed waiters while the clock advances.
func (k *Kernel) wakeDueSleepers() {
	now := k.world.Now()
	kept := k.sleepers[:0]
	for _, s := range k.sleepers {
		if s.wake <= now {
			k.makeRunnable(s.p)
		} else {
			kept = append(kept, s)
		}
	}
	k.sleepers = kept
}

// SetMigrationHook arms a one-shot host callback that fires the first time
// the simulated clock reaches `at` at a quiescent point — a scheduler
// dispatch boundary, the preemption safe point, or a page-fault trap exit.
// At every such point no task goroutine is mid-syscall and every thread's
// execution context is parked or saved in its trap frame, so a checkpoint
// taken inside fn sees a quiescent machine. The hook is disarmed before it
// runs; fn may
// re-arm by calling SetMigrationHook again (the replay-adversary experiment
// captures twice this way). When fn returns, scheduling simply continues:
// the source machine is unharmed whether or not fn transferred anything.
func (k *Kernel) SetMigrationHook(at sim.Cycles, fn func()) {
	k.migrateAt = at
	k.migrateFn = fn
}

// fireMigrationHook runs the armed migration hook if the clock has reached
// its deadline. Called from the machine's quiescent points — scheduler
// dispatch, the preemption safe point, and page-fault trap exit — so a
// busy single-process machine still reaches the hook promptly. A no-op
// (and zero behavioral change) while no hook is armed.
func (k *Kernel) fireMigrationHook() {
	if k.migrateFn == nil || k.world.Now() < k.migrateAt {
		return
	}
	fn := k.migrateFn
	k.migrateFn = nil
	fn()
}

// pickNext chooses the next runnable process, advancing simulated time over
// idle periods. Returns nil when no process can ever run again.
func (k *Kernel) pickNext() *Proc {
	k.fireMigrationHook()
	k.wakeDueSleepers()
	for {
		if k.runnable() > 0 {
			k.rebalance()
			return k.dequeueFrom(k.chooseCPU())
		}
		if len(k.sleepers) == 0 {
			if k.liveProcs > 0 {
				panic("guestos: deadlock — live processes but nothing runnable")
			}
			return nil
		}
		// Advance the clock to the earliest wake time.
		earliest := 0
		for i, s := range k.sleepers {
			if s.wake < k.sleepers[earliest].wake {
				earliest = i
			}
		}
		s := k.sleepers[earliest]
		k.sleepers = append(k.sleepers[:earliest], k.sleepers[earliest+1:]...)
		if s.wake > k.world.Now() {
			// Idle: no task holds a CPU while the clock advances; the idle
			// cycles bill to the due sleeper's home vCPU.
			c := k.world.VCPUs()[s.p.home]
			k.world.Activate(c)
			c.SetTask(0, 0, "", 0, false)
			c.ChargeAdd(s.wake-k.world.Now(), sim.CtrIdle, 0)
		}
		k.makeRunnable(s.p)
	}
}

// switchTo hands the CPU from the current process to next. The caller's
// goroutine must currently hold the baton. If park is true the caller is
// suspended until rescheduled; otherwise (exit) the caller's goroutine
// simply returns.
func (k *Kernel) switchTo(next *Proc, cur *Proc, park bool) {
	// Dispatch happens in the target's execution context: the target's home
	// vCPU becomes the machine's executing CPU and pays the switch cost.
	c := k.world.VCPUs()[next.home]
	k.world.Activate(c)
	c.ChargeCount(k.world.Cost.ContextSwitch, sim.CtrContextSwitch)
	c.EmitSpan(obs.KindCtxSwitch, "switch", uint64(next.pid), k.world.Cost.ContextSwitch)
	k.dispatchAttr(next)
	k.current = next
	next.sliceStart = k.world.Now()
	next.state = stateRunning
	next.baton <- struct{}{}
	if park {
		<-cur.baton
		k.current = cur
	}
}

// yield gives up the CPU: requeue and reschedule. No-op if nothing else is
// runnable.
func (k *Kernel) yield(p *Proc) {
	if k.runnable() == 0 && len(k.sleepers) == 0 {
		p.sliceStart = k.world.Now()
		return
	}
	k.makeRunnable(p)
	next := k.pickNext()
	if next == p {
		p.state = stateRunning
		p.sliceStart = k.world.Now()
		k.dispatchAttr(p)
		return
	}
	k.switchTo(next, p, true)
	if p.killed {
		k.exitCurrent(p, 128+int(SIGKILL))
	}
}

// block suspends p until something calls wake(p). The blocking reason is
// recorded for diagnostics.
func (k *Kernel) block(p *Proc, why string) {
	p.state = stateBlocked
	p.blockedOn = why
	next := k.pickNext()
	if next == nil {
		panic("guestos: blocking with no other runnable process")
	}
	k.switchTo(next, p, true)
	p.blockedOn = ""
	if p.killed {
		// Terminated while blocked: unwind out of the syscall.
		k.exitCurrent(p, 128+int(SIGKILL))
	}
}

// wake marks a blocked process runnable again.
func (k *Kernel) wake(p *Proc) {
	if p.state == stateBlocked {
		k.makeRunnable(p)
	}
}

// sleepUntil suspends p until the clock reaches wake.
func (k *Kernel) sleepUntil(p *Proc, wakeAt sim.Cycles) {
	p.state = stateBlocked
	p.blockedOn = "sleep"
	k.sleepers = append(k.sleepers, &sleeper{p: p, wake: wakeAt})
	next := k.pickNext()
	if next == p {
		p.state = stateRunning
		k.dispatchAttr(p)
		return
	}
	k.switchTo(next, p, true)
	p.blockedOn = ""
	if p.killed {
		k.exitCurrent(p, 128+int(SIGKILL))
	}
}

// maybePreempt ends the time slice if the quantum expired. Called from
// safe points (syscall exit, compute loops).
func (k *Kernel) maybePreempt(p *Proc) {
	k.fireMigrationHook()
	if k.world.Now()-p.sliceStart < quantum {
		return
	}
	k.wakeDueSleepers()
	if k.runnable() == 0 {
		p.sliceStart = k.world.Now()
		return
	}
	k.yield(p)
}

// dispatchAttr points cycle and span attribution at p on p's home vCPU; the
// scheduler calls it at every point where p (re)takes a simulated CPU.
func (k *Kernel) dispatchAttr(p *Proc) {
	c := k.world.VCPUs()[p.home]
	k.world.Activate(c)
	c.SetTask(int(p.procShared.leader.pid), int(p.pid), p.name, uint32(p.thread.Domain), p.cloaked)
}
