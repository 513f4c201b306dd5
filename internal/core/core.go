// Package core is Overshadow's public API: it assembles the simulated
// machine, the VMM, the untrusted guest kernel, and the cloaking shim into
// one system, and gives callers a small surface to register programs, run
// them cloaked or native, and inspect results.
//
// A minimal session:
//
//	sys := core.NewSystem(core.Config{})
//	sys.Register("hello", func(e core.Env) {
//	    va, _ := e.Alloc(1)
//	    e.WriteMem(va, []byte("secret"))
//	    e.Exit(0)
//	})
//	sys.Spawn("hello", core.Cloaked())
//	sys.Run()
//	fmt.Println(sys.SecurityEvents())
package core

import (
	"crypto/sha256"

	"overshadow/internal/cloak"
	"overshadow/internal/fault"
	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/shim"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Re-exported types, so callers that assemble a System (the harness, bench/
// and tests) can write programs against this package alone.
type (
	// Env is the application programming surface (see guestos.Env).
	Env = guestos.Env
	// Pid identifies a guest process.
	Pid = guestos.Pid
	// Program is an application body.
	Program = guestos.Program
	// StatInfo is file metadata.
	StatInfo = guestos.StatInfo
	// Addr is a simulated virtual address.
	Addr = mach.Addr
	// Signal is a guest signal number.
	Signal = guestos.Signal
	// Event is a VMM security audit record.
	Event = vmm.Event
)

// Re-exported constants for file and memory operations.
const (
	ORdOnly  = guestos.ORdOnly
	OWrOnly  = guestos.OWrOnly
	ORdWr    = guestos.ORdWr
	OCreate  = guestos.OCreate
	OTrunc   = guestos.OTrunc
	OAppend  = guestos.OAppend
	SeekSet  = guestos.SeekSet
	SeekCur  = guestos.SeekCur
	SeekEnd  = guestos.SeekEnd
	PageSize = mach.PageSize

	SIGKILL = guestos.SIGKILL
	SIGUSR1 = guestos.SIGUSR1
	SIGTERM = guestos.SIGTERM
)

// Config sizes the machine. The zero value is a sensible 64 MiB guest.
type Config struct {
	// MemoryPages is guest RAM in 4 KiB pages (default 16384 = 64 MiB).
	MemoryPages int
	// SwapPages is swap capacity (default 4x memory).
	SwapPages uint64
	// FSDiskPages is the filesystem device capacity (default 32768).
	FSDiskPages uint64
	// VCPUs is the number of virtual CPUs (default 1). A single-vCPU
	// machine is bit-for-bit identical to builds before SMP existed; more
	// vCPUs interleave deterministically per Seed (see DESIGN.md).
	VCPUs int
	// Seed drives all simulation randomness (default 1).
	Seed uint64
	// Cost overrides the cycle cost model (nil = DefaultCostModel).
	Cost *sim.CostModel
	// VMM carries the ablation knobs of experiment E10.
	VMM vmm.Options
	// Fault activates deterministic fault injection (nil = no faults). The
	// injector is seeded from Seed, so a (Seed, Plan) pair names one exact
	// fault schedule; see internal/fault and experiment E13.
	Fault *fault.Plan
	// Persist enables the VMM's sealed metadata journal (nil = off). The
	// journal lives on a reserved tail range of the swap device, sealed
	// with a key derived from Seed, and makes cloaked-page metadata
	// recoverable across a whole-machine crash; see internal/persist and
	// experiment E14. Journal-free configurations are bit-for-bit identical
	// to builds before this feature existed.
	Persist *persist.Options
	// CrashAt stops the whole machine at exactly this simulated cycle
	// (0 = never): the first cycle charge reaching the deadline freezes the
	// clock and unwinds the machine, leaving both disks exactly as written
	// so far — including torn in-flight journal blocks. Pair with Reboot to
	// exercise the recovery path.
	CrashAt sim.Cycles
}

// System is one assembled machine: hardware, VMM, guest kernel, shim.
type System struct {
	World  *sim.World
	VMM    *vmm.VMM
	Kernel *guestos.Kernel
	// Journal is the VMM metadata journal (nil unless Config.Persist set).
	Journal *persist.Journal
	// Recovery is the crash-recovery report (nil unless this system was
	// built by Reboot).
	Recovery *RecoveryReport

	cfg Config // resolved configuration, kept for Run and Reboot
}

// journalBlocks is the length of the journal's reserved tail range on the
// swap device (256 blocks = 1 MiB).
const journalBlocks = 256

// resolve fills in config defaults.
func (cfg Config) resolve() Config {
	if cfg.MemoryPages == 0 {
		cfg.MemoryPages = 16384
	}
	if cfg.SwapPages == 0 {
		cfg.SwapPages = uint64(cfg.MemoryPages) * 4
	}
	if cfg.FSDiskPages == 0 {
		cfg.FSDiskPages = 32768
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.VCPUs == 0 {
		cfg.VCPUs = 1
	}
	return cfg
}

// newWorld builds the simulation substrate for a resolved config.
func newWorld(cfg Config) *sim.World {
	cost := sim.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	world := sim.NewWorldN(cost, cfg.Seed, cfg.VCPUs)
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		world.Fault = fault.NewInjector(cfg.Seed, *cfg.Fault)
	}
	return world
}

// NewSystem boots a machine per cfg.
func NewSystem(cfg Config) *System {
	cfg = cfg.resolve()
	world := newWorld(cfg)
	hv, err := vmm.New(world, vmm.Config{GuestPages: cfg.MemoryPages, Options: cfg.VMM})
	if err != nil {
		// The config defaults above guarantee a bootable machine; a fault
		// here means the caller asked for an impossible one.
		panic(err)
	}
	var swapDisk *mach.Disk
	var journal *persist.Journal
	if cfg.Persist != nil {
		// The journal shares the swap device: the pager allocates slots in
		// [0, SwapPages) and the journal owns the reserved tail range. One
		// surviving medium then carries both the sealed metadata and the
		// ciphertext it locates.
		swapDisk = mach.NewDisk(world, cfg.SwapPages+journalBlocks)
		j, jerr := persist.NewJournal(world, swapDisk, cfg.SwapPages,
			journalBlocks, persist.SealKey(cfg.Seed), *cfg.Persist)
		if jerr != nil {
			panic(jerr)
		}
		hv.AttachJournal(j)
		journal = j
	}
	return boot(cfg, world, hv, swapDisk, journal)
}

// boot builds the guest kernel over hv and assembles the System around it:
// the step NewSystem and Reboot share once each has its VMM, swap device and
// journal.
func boot(cfg Config, world *sim.World, hv *vmm.VMM, swapDisk *mach.Disk, journal *persist.Journal) *System {
	k := guestos.NewKernel(world, hv, guestos.Config{
		MemoryPages: cfg.MemoryPages,
		SwapPages:   cfg.SwapPages,
		FSDiskPages: cfg.FSDiskPages,
		SwapDisk:    swapDisk,
	})
	k.SetCloakRuntime(shim.Runtime())
	return &System{World: world, VMM: hv, Kernel: k, Journal: journal, cfg: cfg}
}

// Register makes a program spawnable by name.
func (s *System) Register(name string, body Program) {
	s.Kernel.RegisterProgram(name, body)
}

// SpawnOpt configures Spawn.
type SpawnOpt func(*guestos.SpawnOpts)

// Cloaked runs the process in an Overshadow protection domain.
func Cloaked() SpawnOpt {
	return func(o *guestos.SpawnOpts) { o.Cloaked = true }
}

// Spawn queues a process to run the named program.
func (s *System) Spawn(name string, opts ...SpawnOpt) (Pid, error) {
	var so guestos.SpawnOpts
	for _, o := range opts {
		o(&so)
	}
	return s.Kernel.Spawn(name, so)
}

// Run executes the machine until every process has exited — or, when
// Config.CrashAt is set, until the clock reaches the crash deadline, at
// which point the machine stops dead with its disks frozen as written. A
// clean (non-crashed) shutdown quiesces the journal with a final
// checkpoint, so post-quiesce crashes lose nothing.
func (s *System) Run() {
	if s.cfg.CrashAt != 0 {
		// Armed only now: boot-time construction must never crash — every
		// deadline lands inside the measured run.
		s.World.Clock.SetCrashAt(s.cfg.CrashAt)
	}
	s.Kernel.Run()
	if s.Journal != nil && !s.Kernel.Crashed() {
		s.quiesce()
	}
}

// quiesce writes the shutdown checkpoint. The crash deadline can land here
// too — after the kernel stopped but before the journal quiesced — so the
// Crash unwind is contained exactly like the kernel contains it, leaving the
// disk frozen mid-checkpoint (the A/B superblock keeps the old anchor valid).
func (s *System) quiesce() {
	defer func() {
		if r := recover(); r != nil && !sim.IsCrash(r) {
			panic(r)
		}
	}()
	s.Journal.Checkpoint()
}

// Crashed reports whether the machine stopped via the CrashAt deadline —
// whether the deadline fired inside the guest kernel or during the shutdown
// quiesce.
func (s *System) Crashed() bool { return s.Kernel.Crashed() || s.World.Clock.Crashed() }

// Now reports the simulated clock.
func (s *System) Now() sim.Cycles { return s.World.Now() }

// Stats exposes the event counters.
func (s *System) Stats() *sim.Stats { return s.World.Stats }

// SecurityEvents returns the VMM's audit log.
func (s *System) SecurityEvents() []Event { return s.VMM.Events() }

// Adversary gives tests and the attack experiments access to the
// malicious-OS hooks. Must be configured before Run.
func (s *System) Adversary() *guestos.Adversary { return &s.Kernel.Adversary }

// AttachIntrospector arms hypervisor-side kernel introspection (VMI): the
// VMM snapshots the guest kernel's claimed tasks and regions every `every`
// real context switches and cross-checks them against its own ground truth.
// Must be called before Run. Off by default; unattached machines scan
// nothing and keep all exports byte-identical.
func (s *System) AttachIntrospector(every int) *vmm.Introspector {
	return s.VMM.AttachIntrospector(s.Kernel, every)
}

// WriteGuestFile populates the guest filesystem before the machine runs.
func (s *System) WriteGuestFile(path string, data []byte) error {
	if errno := s.Kernel.FS().WriteFile(path, data); errno != guestos.OK {
		return errno
	}
	return nil
}

// ExpectedIdentity computes the measurement the shim records for a program
// name, for comparison against ProcessIdentity.
func ExpectedIdentity(programName string) [32]byte {
	return sha256.Sum256([]byte("overshadow-program:" + programName))
}

// ProcessIdentity returns the VMM-measured identity of the (cloaked)
// process pid. ok is false for native processes, unknown pids, or exited
// domains. This is the attestation path: the answer comes from the trusted
// VMM, never from the guest kernel.
func (s *System) ProcessIdentity(pid Pid) ([32]byte, bool) {
	p, ok := s.Kernel.Lookup(pid)
	if !ok {
		return [32]byte{}, false
	}
	d := p.AddressSpace().Domain()
	if d == 0 {
		return [32]byte{}, false
	}
	return s.VMM.DomainIdentity(d)
}

// ReadGuestFile reads a file from the guest filesystem (host-side; used by
// tests and the harness to verify outputs).
func (s *System) ReadGuestFile(path string) ([]byte, error) {
	data, errno := s.Kernel.FS().ReadFile(path)
	if errno != guestos.OK {
		return nil, errno
	}
	return data, nil
}

// Seed reports the resolved simulation seed. Migration needs it: the
// checkpoint sealing key is derived from the seed, so source and
// destination must agree on it for a transfer to verify.
func (s *System) Seed() uint64 { return s.cfg.Seed }

// PersistOptions returns a copy of the resolved journal options (nil when
// persistence is off). Migration restore re-seals the adopted table under
// the destination's own journal using these options.
func (s *System) PersistOptions() *persist.Options {
	if s.cfg.Persist == nil {
		return nil
	}
	p := *s.cfg.Persist
	return &p
}

// MigrateAt arms a one-shot migration hook: fn runs on the host, with the
// whole machine quiescent at a scheduler dispatch boundary, the first time
// the simulated clock reaches `at` cycles. The hook may re-arm itself (via
// another MigrateAt call) before returning; when it returns, the source
// machine simply continues running — a hook that captured and transferred a
// checkpoint leaves the source unharmed, which is what makes transfer
// aborts safe. Must be called before Run (or from within a firing hook).
func (s *System) MigrateAt(at sim.Cycles, fn func()) {
	s.Kernel.SetMigrationHook(at, fn)
}

// DomainOf reports the protection domain of process pid (0 for native
// processes, unknown pids, or exited domains).
func (s *System) DomainOf(pid Pid) cloak.DomainID {
	p, ok := s.Kernel.Lookup(pid)
	if !ok {
		return 0
	}
	return p.AddressSpace().Domain()
}
