package harness

import (
	"overshadow/internal/core"
	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// microResults collects per-operation cycle costs measured inside a guest.
type microResults map[string]float64

// measure times n repetitions of f in simulated cycles and returns the
// per-operation cost.
func measure(e core.Env, n int, f func()) float64 {
	t0 := e.Time()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(e.Time()-t0) / float64(n)
}

// microProgram runs the single-process slice of the E1 suite and stores
// per-op costs into out (host-side closure capture; keys are row names).
func microProgram(out microResults, reps int) core.Program {
	return func(e core.Env) {
		out["null syscall"] = measure(e, reps, func() { e.Null() })
		out["getpid"] = measure(e, reps, func() {
			if uc, ok := e.(*guestos.UserCtx); ok {
				uc.SysGetPidCall()
			} else {
				e.Null() // shim path: same trap shape as null
			}
		})

		// File ops on a plain (non-cloaked) file.
		buf := must1(e.Alloc(20))
		payload := make([]byte, 64*1024)
		for i := range payload {
			payload[i] = byte(i)
		}
		e.WriteMem(buf, payload)
		fd, err := e.Open("/bench.dat", core.OCreate|core.ORdWr)
		if err != nil {
			e.Exit(1)
		}
		must1(e.Write(fd, buf, 64*1024))

		for _, sz := range []int{1024, 16 * 1024, 64 * 1024} {
			n := sz
			out[sizeName("read", sz)] = measure(e, reps/2, func() {
				must1(e.Pread(fd, buf, n, 0))
			})
			out[sizeName("write", sz)] = measure(e, reps/2, func() {
				must1(e.Pwrite(fd, buf, n, 0))
			})
		}
		must(e.Close(fd))

		out["open+close"] = measure(e, reps/2, func() {
			f := must1(e.Open("/bench.dat", core.ORdOnly))
			must(e.Close(f))
		})
		out["stat"] = measure(e, reps/2, func() { must1(e.Stat("/bench.dat")) })

		// Signal install + self-deliver.
		got := 0
		must(e.Signal(core.SIGUSR1, func(core.Env, core.Signal) { got++ }))
		self := e.Pid()
		out["signal deliver"] = measure(e, reps/4, func() { must(e.Kill(self, core.SIGUSR1)) })

		// fork + wait, and fork+exec+wait.
		out["fork+wait"] = measure(e, forkReps(reps), func() {
			pid, err := e.Fork(func(c core.Env) { c.Exit(0) })
			if err == nil {
				must2(e.WaitPid(pid))
			}
		})
		out["fork+exec+wait"] = measure(e, forkReps(reps), func() {
			pid, err := e.Fork(func(c core.Env) {
				must(c.Exec("noop", nil))
			})
			if err == nil {
				must2(e.WaitPid(pid))
			}
		})
		// Threads share the domain, so cloaked thread creation needs no
		// page re-cloaking — contrast with fork above.
		out["thread create+join"] = measure(e, forkReps(reps), func() {
			tid, err := e.SpawnThread(func(core.Env) {})
			if err == nil {
				must(e.JoinThread(tid))
			}
		})
		e.Exit(0)
	}
}

func forkReps(reps int) int {
	n := reps / 20
	if n < 2 {
		n = 2
	}
	return n
}

func sizeName(op string, sz int) string {
	switch sz {
	case 1024:
		return op + " 1KiB"
	case 16 * 1024:
		return op + " 16KiB"
	default:
		return op + " 64KiB"
	}
}

// pipeLatencyProgram measures round-trip latency over a pipe pair between
// parent and child.
func pipeLatencyProgram(out microResults, reps int) core.Program {
	return func(e core.Env) {
		r1, w1 := must2(e.Pipe())
		r2, w2 := must2(e.Pipe())
		buf := must1(e.Alloc(1))
		e.WriteMem(buf, []byte{1})
		pid, err := e.Fork(func(c core.Env) {
			// Close the parent's ends or EOF never arrives.
			must(c.Close(w1))
			must(c.Close(r2))
			cb := must1(c.Alloc(1))
			for {
				n, err := c.Read(r1, cb, 1)
				if err != nil || n == 0 {
					break
				}
				if _, err := c.Write(w2, cb, 1); err != nil {
					break
				}
			}
			c.Exit(0)
		})
		if err != nil {
			e.Exit(1)
		}
		must(e.Close(r1))
		must(e.Close(w2))
		out["pipe round trip"] = measure(e, reps/4, func() {
			must1(e.Write(w1, buf, 1))
			must1(e.Read(r2, buf, 1))
		})
		must(e.Close(w1))
		must(e.Close(r2))
		must2(e.WaitPid(pid))
		e.Exit(0)
	}
}

// ctxSwitchProgram measures a yield ping-pong between two processes.
func ctxSwitchProgram(out microResults, reps int) core.Program {
	return func(e core.Env) {
		pid, err := e.Fork(func(c core.Env) {
			for i := 0; i < reps; i++ {
				c.Yield()
			}
			c.Exit(0)
		})
		if err != nil {
			e.Exit(1)
		}
		cost := measure(e, reps, func() { e.Yield() })
		out["context switch"] = cost / 2 // one yield = two switches
		must2(e.WaitPid(pid))
		e.Exit(0)
	}
}

// runMicroSuite runs all E1 programs in one mode and merges results.
func runMicroSuite(opts Options, cloaked bool) microResults {
	out := microResults{}
	reps := opts.scale(400, 60)

	mode := "native"
	if cloaked {
		mode = "cloaked"
	}
	run := func(name string, prog core.Program) {
		sys := opts.boot(core.Config{MemoryPages: 4096, Seed: opts.seed(), VCPUs: opts.VCPUs}, name+"/"+mode)
		sys.Register(name, prog)
		sys.Register("noop", func(e core.Env) { e.Exit(0) })
		var so []core.SpawnOpt
		if cloaked {
			so = append(so, core.Cloaked())
		}
		if _, err := sys.Spawn(name, so...); err != nil {
			panic(err)
		}
		sys.Run()
	}
	run("micro", microProgram(out, reps))
	run("pipe", pipeLatencyProgram(out, reps))
	run("ctx", ctxSwitchProgram(out, reps))
	return out
}

// microRowOrder fixes the table layout.
var microRowOrder = []string{
	"null syscall", "getpid",
	"read 1KiB", "read 16KiB", "read 64KiB",
	"write 1KiB", "write 16KiB", "write 64KiB",
	"open+close", "stat", "signal deliver",
	"pipe round trip", "context switch",
	"fork+wait", "fork+exec+wait", "thread create+join",
}

// RunE1 produces the lmbench-style microbenchmark table. The native and
// cloaked suites are independent jobs; rows pair their results by name.
func RunE1(opts Options) *Table {
	suites := sweep(opts, []bool{false, true}, runMicroSuite)
	native, cloaked := suites[0], suites[1]
	t := &Table{
		ID:      "E1",
		Title:   "OS microbenchmarks, simulated cycles per operation",
		Columns: []string{"native", "cloaked", "slowdown"},
	}
	for _, name := range microRowOrder {
		n, c := native[name], cloaked[name]
		slow := 0.0
		if n > 0 {
			slow = c / n
		}
		t.AddRow(name, n, c, slow)
	}
	t.Note("cloaked ops pay secure control transfer (world switches + CTC save/scrub/restore)")
	t.Note("fork additionally pays per-page encrypt + copy + re-cloak (decrypt+encrypt)")
	return t
}

// e2Component maps a counter name to its E2 breakdown column: crypto
// (encryption, hashing, metadata), vmm (world switches, CTC, traps,
// hypercalls), or mem+tlb (raw memory movement and TLB churn). Everything
// else lands in the "other" remainder column.
func e2Component(name string) int {
	switch sim.Counter(name) {
	case sim.CtrPageEncrypt, sim.CtrPageDecrypt, sim.CtrHashCompute, sim.CtrMetaCacheMiss:
		return 1
	case sim.CtrCTCSave, sim.CtrCTCRestore, sim.CtrWorldSwitch, sim.CtrTrap, sim.CtrHypercall:
		return 2
	case sim.CtrMemAccess, sim.CtrTLBMiss, sim.CtrTLBEvict, sim.CtrTLBFlush, sim.CtrPageZero, sim.CtrPageCopy:
		return 3
	}
	return 4
}

// breakdown turns a total and the attributed before/after counter deltas
// into the [total, crypto, vmm, mem+tlb, other] row shape of E2. The four
// component columns sum exactly to total: every charge in the machine is
// attributed to a named counter and the remainder is computed, not measured.
// Both inputs come name-sorted from TotalsSorted, so the float accumulation
// order — and with it the rounded column values — is deterministic.
func breakdown(total float64, before, after []obs.NameTotal) []float64 {
	prev := make(map[string]uint64, len(before))
	for _, nt := range before {
		prev[nt.Name] = nt.Cycles
	}
	vals := []float64{total, 0, 0, 0, 0}
	for _, nt := range after {
		if c := e2Component(nt.Name); c != 4 {
			vals[c] += float64(nt.Cycles - prev[nt.Name])
		}
	}
	vals[4] = total - vals[1] - vals[2] - vals[3]
	return vals
}

// RunE2 decomposes the cost of one cloaking transition by measuring each
// primitive directly against the VMM, splitting every measured row into
// per-component attributed cycles. The primitive measurements and the
// end-to-end probe build independent worlds, so they run as two jobs.
func RunE2(opts Options) *Table {
	fprim := submit(opts, e2Primitives)
	fprobe := submit(opts, e2Probe)

	t := &Table{
		ID:      "E2",
		Title:   "Cloaking transition cost breakdown (simulated cycles)",
		Columns: []string{"cycles", "crypto", "vmm", "mem+tlb", "other", "lat p50", "lat p99"},
	}
	for _, r := range fprim.wait() {
		t.Rows = append(t.Rows, Row{Name: r.Name, Values: append(r.Values, 0, 0)})
	}

	// End-to-end probe: one cloaked process exercising the full stack —
	// syscalls, hypercalls, file I/O, demand faults — so a traced E2 run
	// (overbench -e E2 -trace) contains every span kind on the process's
	// own track, and the row shows where a whole run's cycles go. The probe
	// always profiles itself, so the per-kind latency rows below carry
	// completion-latency percentiles from its sim-time span histograms.
	probe := fprobe.wait()
	t.AddRow("end-to-end probe (cloaked)", append(probe.breakdown, 0, 0)...)
	t.Rows = append(t.Rows, probe.lats...)

	m := sim.DefaultCostModel()
	aes := float64(m.PageCryptCost(mach.PageSize))
	sha := float64(m.PageHashCost(mach.PageSize))
	t.AddRow("  model: AES 4KiB", aes, aes, 0, 0, 0, 0, 0)
	t.AddRow("  model: SHA-256 4KiB", sha, sha, 0, 0, 0, 0, 0)
	t.AddRow("  model: world switch", float64(m.WorldSwitch), 0, float64(m.WorldSwitch), 0, 0, 0, 0)
	t.AddRow("  model: TLB flush", float64(m.TLBFlush), 0, 0, float64(m.TLBFlush), 0, 0, 0)
	t.Note("measured rows include shadow maintenance and metadata cache effects")
	t.Note("component columns (crypto/vmm/mem+tlb/other) sum to the cycles column")
	t.Note("lat rows: per-kind span latency from the probe's profile; their cycles column is the kind's total span time")
	return t
}

// e2Primitives measures each transition primitive directly against the VMM
// through the typed hypercall handle and returns the measured rows.
func e2Primitives(opts Options) []Row {
	w := sim.NewWorld(sim.DefaultCostModel(), opts.seed())
	opts.observe(w, "E2/primitives")
	met := w.Metrics
	if met == nil {
		met = w.EnableMetrics(nil) // breakdown columns need attribution even unobserved
	}
	hv := must1(vmm.New(w, vmm.Config{GuestPages: 64}))
	as := hv.CreateAddressSpace(mmu.NewPageTable())
	conn := must1(hv.HCCreateDomain(as))
	res := must1(conn.AllocResource())
	if err := conn.RegisterRegion(vmm.Region{BaseVPN: 16, Pages: 8, Resource: res, Cloaked: true}); err != nil {
		panic(err)
	}
	as.GuestPT().Map(16, mmu.PTE{PN: 3, Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})

	var rows []Row
	timed := func(name string, f func()) {
		before := met.TotalsSorted()
		t0 := w.Now()
		f()
		rows = append(rows, Row{Name: name,
			Values: breakdown(float64(w.Clock.Since(t0)), before, met.TotalsSorted())})
	}

	// First app touch: zero-fill + shadow fill.
	one := []byte{1}
	timed("first app touch (zero-fill)", func() {
		if err := hv.WriteVirt(as, vmm.ViewApp, 16*mach.PageSize, one, true); err != nil {
			panic(err)
		}
	})
	// Kernel touch of plaintext page: encrypt 4 KiB + hash + shadow ops.
	buf := make([]byte, 8)
	timed("kernel touch (encrypt+hash)", func() {
		if err := hv.ReadVirt(as, vmm.ViewSystem, 16*mach.PageSize, buf, false); err != nil {
			panic(err)
		}
	})
	// App re-touch: verify + decrypt.
	timed("app re-touch (verify+decrypt)", func() {
		if err := hv.ReadVirt(as, vmm.ViewApp, 16*mach.PageSize, buf, true); err != nil {
			panic(err)
		}
	})

	th := hv.CreateThread(as.Domain())
	timed("trap enter (CTC save+scrub)", func() { th.EnterKernel(vmm.TrapSyscall) })
	timed("trap exit (CTC restore)", func() {
		if err := th.ExitKernel(); err != nil {
			panic(err)
		}
	})
	timed("hypercall dispatch", func() { must1(conn.AllocResource()) })
	return rows
}

// e2Result is the probe's output: its breakdown row plus the per-span-kind
// latency rows derived from its profile.
type e2Result struct {
	breakdown []float64
	lats      []Row
}

// e2LatKinds are the span kinds the E2 latency rows report, in table order.
var e2LatKinds = []obs.Kind{obs.KindSyscall, obs.KindHypercall, obs.KindPageFault, obs.KindDisk}

// e2Probe runs a small cloaked workload end to end (syscalls + file I/O on a
// fresh system) and returns the same [total, crypto, vmm, mem+tlb, other]
// row shape as RunE2's primitive measurements, plus per-kind latency rows.
func e2Probe(opts Options) e2Result {
	sys := opts.boot(core.Config{MemoryPages: 2048, Seed: opts.seed(), VCPUs: opts.VCPUs}, "E2/probe")
	met := sys.World.Metrics
	if met == nil {
		met = sys.World.EnableMetrics(nil)
	}
	prof := sys.World.Profile()
	if prof == nil {
		prof = sys.World.EnableProfile(nil) // latency rows need spans even unobserved
	}
	before := met.TotalsSorted()
	sys.Register("probe", func(e core.Env) {
		buf := must1(e.Alloc(2))
		payload := make([]byte, 4096)
		for i := range payload {
			payload[i] = byte(i)
		}
		e.WriteMem(buf, payload)
		fd := must1(e.Open("/probe.dat", core.OCreate|core.ORdWr))
		for i := 0; i < 8; i++ {
			e.Null()
			must1(e.Pwrite(fd, buf, 4096, uint64(i)*4096))
			must1(e.Pread(fd, buf, 4096, 0))
		}
		must(e.Close(fd))
		e.Exit(0)
	})
	mustSpawn(sys, "probe")
	sys.Run()
	res := e2Result{breakdown: breakdown(float64(sys.Now()), before, met.TotalsSorted())}
	for _, k := range e2LatKinds {
		h := prof.HistByKind(k)
		res.lats = append(res.lats, Row{
			Name: "  lat " + k.String() + " (probe)",
			Values: []float64{float64(h.Sum()), 0, 0, 0, 0,
				float64(h.Percentile(50)), float64(h.Percentile(99))},
		})
	}
	return res
}
