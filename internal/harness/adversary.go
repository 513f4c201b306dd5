package harness

import (
	"bytes"

	"overshadow/internal/adversary"
	"overshadow/internal/core"
	"overshadow/internal/guestos"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// E17: the adversarial-kernel battery. Every scenario boots a machine whose
// guest kernel runs one attack plan from internal/adversary — Iago-style
// lying syscall returns, scheduler-driven cross-vCPU races, rootkit lies to
// the hypervisor-side introspection monitor, or resource-exhaustion storms —
// against a three-process workload (cloaked victim, cloaked sibling, native
// worker). The robustness contract under an actively malicious kernel:
//
//   - every attack terminates in a *typed* outcome — a shim Iago rejection,
//     a CTC-tamper or integrity detection, an introspection divergence, a
//     quota denial, or a quarantine — never a panic, never silent use of a
//     kernel-controlled lie;
//   - the victim either completes with its data verified or is contained by
//     quarantine before it can consume corrupted state;
//   - siblings and the rest of the machine keep full service;
//   - cloaked plaintext never reaches a disk, whatever the kernel mounts.
//
// Attack schedules derive from (seed, plan name) only, so rows are
// byte-identical for any -shards value at a fixed seed and any vCPU count
// is deterministic per seed.

// e17secret is the plaintext marker every cloaked victim plants in its heap;
// the leak scan looks for its prefix in raw disk blocks.
var e17secret = []byte("E17-ADV-SECRET-00112233445566778899")

// e17plain is the pattern of the *uncloaked* data file the file victims
// read; deliberately disjoint from e17secret (plain-file I/O is plaintext by
// design and must not trip the leak scan).
var e17plain = []byte("E17-plain-file-pattern-not-secret")

// e17sibstamp is the sibling's page stamp (verified after the attack).
const e17sibstamp = uint64(0xADE17000C0FFEE00)

// advScenario is one battery entry: an attack plan, the victim workload
// shape it targets, and the typed outcome the defense model predicts (the
// shape test pins the expectations; the table just reports).
type advScenario struct {
	name string
	// plan builds a fresh attack plan per run. Plans carry closure state
	// (remembered bases, forge counters), so one Plan value must never be
	// shared across machines or vCPU counts. Nil is the honest kernel.
	plan func() adversary.Plan
	// victim picks the workload shape the attack targets.
	victim func(o Options, out *advOutcome) core.Program
	// introspect attaches the hypervisor-side monitor (VMI scenarios and the
	// honest baseline that proves it reports no false divergences).
	introspect bool
	// storm spawns this many extra cloaked flooder processes (spawn-storm).
	storm int
	// bomber spawns a region-hungry cloaked process (meta-bomb).
	bomber bool
	// seedFS pre-populates the uncloaked data file the file victims read.
	seedFS bool
	// Predicted typed signals. Each set flag must observe its signal.
	wantReject     bool // shim Iago validation rejections
	wantDetect     bool // CTC-tamper or integrity-violation events
	wantDiverge    bool // introspection divergences
	wantResource   bool // typed ResourceFault events (quota/wedge)
	wantQuarantine bool // domain quarantines
	wantVictimDone bool // the victim completes with verified data
	// wantClean: the honest baseline must trip *no* attack signal.
	wantClean bool
}

// advOutcome is one scenario's observed result.
type advOutcome struct {
	name        string
	rejects     uint64 // shim Iago rejections (counter)
	diverges    uint64 // introspection divergences (counter)
	detections  int    // CTC-tamper + integrity-violation events
	resources   int    // typed ResourceFault events
	quarantines int
	victimDone  bool
	corrupted   bool // victim consumed wrong data without detection
	siblingOK   bool
	leakFree    bool
	contained   bool
}

// contained evaluates the scenario's typed-outcome contract against what the
// run observed.
func (sc advScenario) containedBy(o advOutcome) bool {
	ok := o.leakFree && o.siblingOK && !o.corrupted
	if sc.wantReject {
		ok = ok && o.rejects > 0
	}
	if sc.wantDetect {
		ok = ok && o.detections > 0
	}
	if sc.wantDiverge {
		ok = ok && o.diverges > 0
	}
	if sc.wantResource {
		ok = ok && o.resources > 0
	}
	if sc.wantQuarantine {
		ok = ok && o.quarantines > 0
	}
	// The victim finishes exactly where the model predicts it does: a
	// victim that completes under a quarantine prediction used state the
	// defense should have cut off.
	ok = ok && o.victimDone == sc.wantVictimDone
	if sc.wantClean {
		ok = ok && o.rejects == 0 && o.diverges == 0 && o.detections == 0 &&
			o.resources == 0 && o.quarantines == 0
	}
	return ok
}

// advHeapVictim is the general-purpose cloaked victim: a heap secret plus a
// syscall-rich loop (null calls, heap growth, yields) that gives race,
// replay, and introspection attacks their windows, then a final verify.
func advHeapVictim(steps int, out *advOutcome) core.Program {
	return func(e core.Env) {
		base := must1(e.Sbrk(1))
		e.WriteMem(base, e17secret)
		for i := 0; i < steps; i++ {
			e.Compute(2500)
			e.Null()
			if i%3 == 1 {
				//overlint:allow errnodiscipline -- a forged break surfaces as a typed error the victim tolerates; the secret check below catches real damage
				e.Sbrk(1)
			}
			e.Yield()
		}
		got := make([]byte, len(e17secret))
		e.ReadMem(base, got)
		if !bytes.Equal(got, e17secret) {
			out.corrupted = true // silent corruption: never acceptable
			return
		}
		out.victimDone = true
		e.Exit(0)
	}
}

// advMemVictim exercises every mmap-class return the shim validates: Alloc,
// Sbrk, ShmAttach. Forged returns surface as typed errors the victim
// tolerates and retries; honest calls must keep succeeding (the validator is
// selective, not a denial of service).
func advMemVictim(rounds int, out *advOutcome) core.Program {
	return func(e core.Env) {
		// Even the first break can be forged (brk-wild): acquire the heap
		// with tolerant retries — the forge budget is finite, honesty returns.
		var heap core.Addr
		acquired := false
		for i := 0; i < 6 && !acquired; i++ {
			if b, err := e.Sbrk(1); err == nil {
				heap, acquired = b, true
			}
		}
		if !acquired {
			return
		}
		e.WriteMem(heap, e17secret)
		good := 0
		got := make([]byte, len(e17secret))
		for i := 0; i < rounds; i++ {
			if b, err := e.Alloc(2); err == nil {
				// Kept alive: live mappings are what overlap forgeries must
				// collide with (and what the shim cross-checks against).
				e.WriteMem(b, e17secret)
				e.ReadMem(b, got)
				if !bytes.Equal(got, e17secret) {
					out.corrupted = true
				}
				good++
			}
			//overlint:allow errnodiscipline -- forged breaks are rejected typed; the victim tolerates and retries
			e.Sbrk(1)
			if i%2 == 0 {
				if b, err := e.ShmAttach("e17-seg", 2); err == nil {
					e.Store64(b, 0xE17)
					if e.Load64(b) != 0xE17 {
						out.corrupted = true
					}
					if ferr := e.Free(b); ferr != nil {
						return
					}
				}
			}
			e.Yield()
		}
		e.ReadMem(heap, got)
		if !bytes.Equal(got, e17secret) {
			out.corrupted = true
			return
		}
		out.victimDone = good > 0
		e.Exit(0)
	}
}

// advFileVictim exercises the descriptor- and transfer-count-shaped returns:
// it holds a cloaked file open (the alias target the validator protects),
// then repeatedly opens and reads an uncloaked data file through the
// marshalled path. Forged fds, counts, and errnos all surface as typed
// errors; honest retries must succeed.
func advFileVictim(rounds int, out *advOutcome) core.Program {
	return func(e core.Env) {
		heap := must1(e.Sbrk(1))
		e.WriteMem(heap, e17secret)
		if err := e.Mkdir("/secret"); err != nil && err != guestos.EEXIST {
			return
		}
		cfd := -1
		if fd, err := e.Open("/secret/vault", core.OCreate|core.ORdWr); err == nil {
			cfd = fd
			//overlint:allow errnodiscipline -- a forged write count is rejected typed; the Pread verify below decides integrity
			e.Write(cfd, heap, 16)
		}
		good := 0
		buf := make([]byte, len(e17plain))
		for i := 0; i < rounds; i++ {
			fd, err := e.Open("/e17data", core.ORdOnly)
			if err != nil {
				continue // typed rejection (EBADF alias / EIO errno): retried
			}
			if n, rerr := e.Read(fd, heap+2048, len(e17plain)); rerr == nil {
				e.ReadMem(heap+2048, buf[:n])
				if n != len(e17plain) || !bytes.Equal(buf[:n], e17plain) {
					out.corrupted = true
				} else {
					good++
				}
			}
			//overlint:allow errnodiscipline -- closing an fd the kernel may have lied about: a typed EBADF is the validator working
			e.Close(fd)
		}
		if cfd >= 0 {
			if n, err := e.Pread(cfd, heap+1024, 16, 0); err == nil && n == 16 {
				check := make([]byte, 16)
				e.ReadMem(heap+1024, check)
				if !bytes.Equal(check, e17secret[:16]) {
					out.corrupted = true
				}
			}
			//overlint:allow errnodiscipline -- closing an fd the kernel may have lied about: a typed EBADF is the validator working
			e.Close(cfd)
		}
		got := make([]byte, len(e17secret))
		e.ReadMem(heap, got)
		if !bytes.Equal(got, e17secret) {
			out.corrupted = true
			return
		}
		out.victimDone = good > 0
		e.Exit(0)
	}
}

// e17scenarios builds the battery. Plans are constructed lazily (fresh per
// run) so their closure state never crosses machines.
func e17scenarios() []advScenario {
	heap := func(o Options, out *advOutcome) core.Program {
		return advHeapVictim(o.scale(30, 18), out)
	}
	mem := func(o Options, out *advOutcome) core.Program {
		return advMemVictim(o.scale(10, 7), out)
	}
	file := func(o Options, out *advOutcome) core.Program {
		return advFileVictim(o.scale(8, 6), out)
	}
	// The journal flooder: a working set far past RAM keeps page-outs (and
	// journal appends) flowing until its per-domain quota wedges. The wedge
	// is an availability loss at replay only: swap itself keeps working, so
	// the flooder still completes with verified data.
	swap := func(o Options, out *advOutcome) core.Program {
		return swapVictim(e17secret, o.scale(160, 120), 2, &out.corrupted, &out.victimDone)
	}
	plan := func(f func(string) adversary.Plan) func() adversary.Plan {
		return func() adversary.Plan { return f("victim") }
	}
	return []advScenario{
		{name: "honest-baseline", victim: heap, introspect: true,
			wantClean: true, wantVictimDone: true},
		{name: "iago-mmap-scratch", plan: plan(adversary.IagoMmapScratch),
			victim: mem, wantReject: true, wantVictimDone: true},
		{name: "iago-mmap-overlap", plan: plan(adversary.IagoMmapOverlap),
			victim: mem, wantReject: true, wantVictimDone: true},
		{name: "iago-brk-wild", plan: plan(adversary.IagoBrkWild),
			victim: mem, wantReject: true, wantVictimDone: true},
		{name: "iago-shm-overlap", plan: plan(adversary.IagoShmOverlap),
			victim: mem, wantReject: true, wantVictimDone: true},
		{name: "iago-read-huge", plan: plan(adversary.IagoReadHuge),
			victim: file, seedFS: true, wantReject: true, wantVictimDone: true},
		{name: "iago-read-negative", plan: plan(adversary.IagoReadNegative),
			victim: file, seedFS: true, wantReject: true, wantVictimDone: true},
		{name: "iago-fd-alias", plan: plan(adversary.IagoFDAlias),
			victim: file, seedFS: true, wantReject: true, wantVictimDone: true},
		{name: "iago-errno-forge", plan: plan(adversary.IagoErrnoForge),
			victim: file, seedFS: true, wantReject: true, wantVictimDone: true},
		{name: "race-ctc-replay", plan: plan(adversary.RaceCTCReplay),
			victim: heap, wantDetect: true, wantVictimDone: true},
		{name: "race-tamper-storm", plan: plan(adversary.RaceTamperStorm),
			victim: heap, wantDetect: true, wantQuarantine: true},
		{name: "race-snoop-storm",
			plan: func() adversary.Plan {
				return adversary.RaceSnoopStorm("victim", e17secret[:16])
			},
			victim: heap, wantVictimDone: true},
		{name: "vmi-hidden-task", plan: plan(adversary.RootkitHideTasks),
			victim: heap, introspect: true, wantDiverge: true, wantVictimDone: true},
		{name: "vmi-phantom-task", plan: plan(adversary.RootkitPhantomTask),
			victim: heap, introspect: true, wantDiverge: true, wantVictimDone: true},
		{name: "vmi-region-unlink", plan: plan(adversary.RootkitUnlinkRegions),
			victim: heap, introspect: true, wantDiverge: true, wantVictimDone: true},
		{name: "exhaust-spawn-storm",
			// Quota 5 against 7 cloaked processes (victim, sibling, 5
			// flooders): at least two storm arrivals take a typed denial
			// at any vCPU count. Admission is first-come (the VMM cannot
			// tell a flooder from the victim), so the slot margin leaves
			// room for the worst attach order the SMP scheduler produces.
			plan: func() adversary.Plan {
				return adversary.ExhaustDomains("victim", 5)
			},
			victim: heap, storm: 5, wantResource: true, wantVictimDone: true},
		{name: "exhaust-meta-bomb",
			plan: func() adversary.Plan {
				return adversary.ExhaustRegions("victim", 8)
			},
			victim: heap, bomber: true, wantResource: true, wantVictimDone: true},
		{name: "exhaust-journal-flood",
			plan: func() adversary.Plan {
				return adversary.ExhaustJournal("victim", 48)
			},
			victim: swap, wantResource: true, wantVictimDone: true},
	}
}

// RunE17 sweeps the adversary battery; each scenario builds its own system,
// so each runs as one pool job.
func RunE17(opts Options) *Table {
	outcomes := sweep(opts, e17scenarios(), runAdvScenario)
	t := &Table{
		ID:    "E17",
		Title: "Adversarial kernel battery: Iago returns, races, exhaustion, introspection",
		Columns: []string{"iago rejects", "vmi diverges", "detections", "resource faults",
			"quarantines", "victim done", "sibling intact", "leak-free", "contained"},
	}
	for _, o := range outcomes {
		t.AddRow(o.name, float64(o.rejects), float64(o.diverges), float64(o.detections),
			float64(o.resources), float64(o.quarantines), b2f(o.victimDone),
			b2f(o.siblingOK), b2f(o.leakFree), b2f(o.contained))
	}
	t.Note("every attack must terminate typed: a rejection, a detection, a divergence, a quota denial, or a quarantine — 'contained' must be 1 on every row")
	t.Note("'honest-baseline' runs the same workload under an honest kernel with introspection armed: zero signals proves no false positives")
	t.Note("'victim done' is 0 only where the defense model predicts quarantine before completion (race-tamper-storm)")
	t.Note("attack schedules derive from (seed, plan name): rows are byte-identical at any -shards and deterministic per vCPU count")
	return t
}

// runAdvScenario boots one hostile machine and runs the battery workload.
func runAdvScenario(opts Options, sc advScenario) advOutcome {
	o := advOutcome{name: sc.name}
	var plan adversary.Plan
	if sc.plan != nil {
		plan = sc.plan()
	}
	cfg := core.Config{MemoryPages: 512, Seed: scenarioSeed(opts, sc.name), VCPUs: opts.VCPUs,
		VMM: vmm.Options{Quota: plan.Quota}}
	if plan.JournalQuota > 0 {
		// The journal-flood machine: RAM small enough that the flooder's
		// working set swaps hard, with per-domain journal quotas armed.
		cfg.MemoryPages = 96
		cfg.Persist = &persist.Options{CheckpointEvery: 16, PerDomainEntries: plan.JournalQuota}
	}
	sys := opts.boot(cfg, "adversary/"+sc.name)
	if sc.introspect {
		sys.AttachIntrospector(4)
	}
	plan.Arm(sys.Kernel)
	if sc.seedFS {
		if err := sys.WriteGuestFile("/e17data", e17plain); err != nil {
			panic(err)
		}
	}

	sibPages := 4
	if plan.JournalQuota > 0 {
		sibPages = 8 // the flood sibling must journal too (and stay under quota)
	}
	spawnCast(sys, opts, sc.victim(opts, &o), e17sibstamp, sibPages, &o.siblingOK)
	if sc.storm > 0 {
		// The spawn storm: flooders past the domain quota die at attach with
		// a typed denial. Winners linger long enough that the storm's later
		// arrivals find the domain table genuinely full, then exit clean.
		sys.Register("flooder", func(e core.Env) {
			for s := 0; s < 10; s++ {
				e.Compute(2000)
				e.Yield()
			}
			e.Exit(0)
		})
		for i := 0; i < sc.storm; i++ {
			mustSpawn(sys, "flooder")
		}
	}
	if sc.bomber {
		// The metastore bomb: grows one domain's region table until the
		// per-domain quota kills it — a typed availability loss for the
		// bomber only.
		sys.Register("bomber", func(e core.Env) {
			for i := 0; i < 12; i++ {
				if _, err := e.Alloc(1); err != nil {
					e.Exit(3)
				}
			}
			e.Exit(0)
		})
		mustSpawn(sys, "bomber")
	}
	sys.Run()

	o.rejects = sys.Stats().Get(sim.CtrIagoRejected)
	o.diverges = sys.Stats().Get(sim.CtrIntrospectDiverge)
	for _, ev := range sys.SecurityEvents() {
		switch ev.Kind {
		case vmm.EventCTCTamper, vmm.EventIntegrityViolation:
			o.detections++
		case vmm.EventResourceFault:
			o.resources++
		case vmm.EventQuarantine:
			o.quarantines++
		}
	}
	// Privacy: no cloaked plaintext on either disk, and no hook ever saw it.
	o.leakFree = !onDisks(sys, e17secret[:8]) && !sys.Kernel.Adversary.Leaked
	o.contained = sc.containedBy(o)
	return o
}
