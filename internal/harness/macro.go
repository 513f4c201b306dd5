package harness

import (
	"fmt"

	"overshadow/internal/core"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
	"overshadow/internal/workload"
)

// macroRun is one macro job: a workload program on a fresh machine, native
// or cloaked. prog builds the program inside the job: workload programs may
// capture per-run state, and two jobs must never share one.
type macroRun struct {
	cfg     core.Config
	name    string
	prog    func() core.Program
	cloaked bool
}

// pair is the native and the cloaked run of one workload, the two points
// most macro tables sweep per row.
func pair(cfg core.Config, name string, prog func() core.Program) []macroRun {
	return []macroRun{{cfg, name, prog, false}, {cfg, name, prog, true}}
}

// runToCompletion boots r's machine, runs its program, and returns the
// system for counter inspection. The world is attached to opts.Observe (if
// any) under a "<program>/<mode>" phase label.
func runToCompletion(opts Options, r macroRun) *core.System {
	prog := r.prog()
	mode := "native"
	if r.cloaked {
		mode = "cloaked"
	}
	sys := opts.boot(r.cfg, r.name+"/"+mode)
	sys.Register(r.name, prog)
	var so []core.SpawnOpt
	if r.cloaked {
		so = append(so, core.Cloaked())
	}
	if _, err := sys.Spawn(r.name, so...); err != nil {
		panic(err)
	}
	sys.Run()
	return sys
}

// runCycles is the job most macro tables sweep: a run's elapsed simulated
// cycles.
func runCycles(opts Options, r macroRun) sim.Cycles { return runToCompletion(opts, r).Now() }

// RunE3 compares the CPU-bound kernels native vs cloaked.
func RunE3(opts Options) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "CPU-bound workloads, total Mcycles (lower is better)",
		Columns: []string{"native Mcyc", "cloaked Mcyc", "overhead %"},
	}
	ws := opts.scale(512, 64)
	// Per-kernel repetition counts sized so every kernel does enough work
	// (several Mcycles) for fixed per-process cloaking costs to wash out.
	fullIters := map[workload.CPUKernel]int{
		workload.KernelIntSort: 2, workload.KernelMatMul: 8,
		workload.KernelPointerChase: 30, workload.KernelChecksum: 30,
		workload.KernelRLE: 100, workload.KernelPureCompute: 300,
	}
	quickIters := map[workload.CPUKernel]int{
		workload.KernelIntSort: 2, workload.KernelMatMul: 120,
		workload.KernelPointerChase: 60, workload.KernelChecksum: 60,
		workload.KernelRLE: 300, workload.KernelPureCompute: 400,
	}
	kernels := workload.AllCPUKernels()
	var runs []macroRun
	for _, k := range kernels {
		iters := fullIters[k]
		if opts.Quick {
			iters = quickIters[k]
		}
		cfg := workload.CPUConfig{Kernel: k, WorkingSetK: ws, Iters: iters}
		sysCfg := core.Config{MemoryPages: 4096, Seed: opts.seed(), VCPUs: opts.VCPUs}
		runs = append(runs, pair(sysCfg, string(k), func() core.Program { return workload.CPUProgram(cfg) })...)
	}
	cyc := sweep(opts, runs, runCycles)
	for i, k := range kernels {
		nat, clo := cyc[2*i], cyc[2*i+1]
		t.AddRow(string(k), mcyc(nat), mcyc(clo), pct(clo, nat))
	}
	t.Note("working set %d KiB, fits in RAM: cloaking costs only startup + timer crossings", ws)
	return t
}

// RunE4 measures web-server throughput across payload sizes.
func RunE4(opts Options) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Web server: requests per Mcycle vs payload size",
		Columns: []string{"native req/Mcyc", "cloaked req/Mcyc", "overhead %"},
	}
	reqs := opts.scale(300, 40)
	payloads := []int{1024, 4096, 16384, 65536}
	var runs []macroRun
	for _, payload := range payloads {
		cfg := workload.WebConfig{
			Requests: reqs, PayloadBytes: payload, NumDocs: 8, ParseCompute: 2000,
		}
		sysCfg := core.Config{MemoryPages: 8192, Seed: opts.seed(), VCPUs: opts.VCPUs}
		runs = append(runs, pair(sysCfg, "web", func() core.Program { return workload.WebServerProgram(cfg) })...)
	}
	cyc := sweep(opts, runs, runCycles)
	for i, payload := range payloads {
		nat, clo := cyc[2*i], cyc[2*i+1]
		name := fmt.Sprintf("payload %dKiB", payload/1024)
		t.AddRow(name, thrput(reqs, nat), thrput(reqs, clo), pct(clo, nat))
	}
	t.Note("request path: pipe read + open + file read + pipe write; cloaked pays marshalling both sides")
	return t
}

// RunE5 compares file I/O through the three data paths.
func RunE5(opts Options) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "File I/O: KiB moved per Mcycle (higher is better)",
		Columns: []string{"KiB/Mcyc", "Mcycles"},
	}
	fileKB := opts.scale(2048, 256)
	io := 16 * 1024
	rand := opts.scale(200, 30)
	modes := []struct {
		name   string
		cloakP bool // cloaked process
		cloakF bool // cloaked file
	}{
		{"native", false, false},
		{"cloaked proc, plain file", true, false},
		{"cloaked proc, cloaked file", true, true},
	}
	// Total bytes moved: write + read + random reads.
	totalKB := float64(fileKB*2) + float64(rand*io)/1024
	runs := make([]macroRun, len(modes))
	for i, m := range modes {
		cfg := workload.FileIOConfig{FileKB: fileKB, IOSize: io, RandReads: rand, Cloak: m.cloakF}
		sysCfg := core.Config{MemoryPages: 8192, FSDiskPages: 65536, Seed: opts.seed(), VCPUs: opts.VCPUs}
		runs[i] = macroRun{sysCfg, "fileio", func() core.Program { return workload.FileIOProgram(cfg) }, m.cloakP}
	}
	cyc := sweep(opts, runs, runCycles)
	for i, m := range modes {
		cycles := cyc[i]
		t.AddRow(m.name, totalKB/mcyc(cycles), mcyc(cycles))
	}
	t.Note("cloaked files use the shim's mmap-emulated I/O: data never crosses the kernel in plaintext")
	return t
}

// RunE6 sweeps memory pressure.
func RunE6(opts Options) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Paging: total Mcycles vs working set / RAM ratio",
		Columns: []string{"native Mcyc", "cloaked Mcyc", "delta Mcyc", "pageouts (cloaked)"},
	}
	ram := opts.scale(512, 128)
	sweeps := opts.scale(5, 3)
	ratios := []float64{0.5, 0.8, 1.2, 1.6}
	var runs []macroRun
	for _, ratio := range ratios {
		pages := int(float64(ram) * ratio)
		cfg := workload.PagingConfig{WorkingSetPages: pages, Sweeps: sweeps}
		sysCfg := core.Config{MemoryPages: ram, SwapPages: uint64(ram) * 8, Seed: opts.seed(), VCPUs: opts.VCPUs}
		runs = append(runs, pair(sysCfg, "paging", func() core.Program { return workload.PagingProgram(cfg) })...)
	}
	type paged struct {
		cycles   sim.Cycles
		pageOuts uint64
	}
	res := sweep(opts, runs, func(o Options, r macroRun) paged {
		sys := runToCompletion(o, r)
		return paged{sys.Now(), sys.Stats().Get(sim.CtrPageOut)}
	})
	for i, ratio := range ratios {
		nat, co := res[2*i].cycles, res[2*i+1]
		name := fmt.Sprintf("ws/ram = %.1f", ratio)
		t.AddRow(name, mcyc(nat), mcyc(co.cycles),
			mcyc(co.cycles)-mcyc(nat), float64(co.pageOuts))
	}
	t.Note("past ws/ram=1 every page-out of a cloaked page adds encrypt, every page-in verify+decrypt")
	return t
}

// RunE7 measures metadata space per cloaked page.
func RunE7(opts Options) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Cloaking metadata space overhead",
		Columns: []string{"cloaked pages", "metadata bytes", "bytes/page"},
	}
	ram := opts.scale(256, 96)
	// Working sets beyond RAM so the kernel pages every cloaked page out
	// (each page-out creates/updates one metadata record). Each working-set
	// size is one job; the job returns the peak metadata footprint sampled
	// at page-out time.
	sizes := []int{ram * 5 / 4, ram * 3 / 2, ram * 2}
	peaks := sweep(opts, sizes, func(o Options, pages int) int {
		cfg := workload.PagingConfig{WorkingSetPages: pages, Sweeps: 2}
		sys := o.boot(core.Config{MemoryPages: ram, SwapPages: uint64(ram) * 8, Seed: o.seed(), VCPUs: o.VCPUs},
			fmt.Sprintf("meta-%dp/cloaked", pages))
		maxBytes := 0
		// Sample metadata growth whenever the kernel pages something out.
		sys.Adversary().OnPageOut = func(_ *guestos.Kernel, _ *guestos.Proc, _ uint64, _ []byte) {
			if b := sys.VMM.MetadataBytes(); b > maxBytes {
				maxBytes = b
			}
		}
		sys.Register("paging", workload.PagingProgram(cfg))
		mustSpawn(sys, "paging")
		sys.Run()
		return maxBytes
	})
	for i, pages := range sizes {
		maxBytes := peaks[i]
		perPage := 0.0
		if maxBytes > 0 {
			// Metadata records exist for every page that has ever been
			// encrypted — use the working-set size as the denominator.
			perPage = float64(maxBytes) / float64(pages)
		}
		t.AddRow(fmt.Sprintf("%d pages", pages), float64(pages), float64(maxBytes), perPage)
	}
	t.Note("each record: 16B IV + 32B SHA-256 + 8B version + 20B identity key")
	return t
}

// RunE9 compares the compile-like process mix.
func RunE9(opts Options) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Compile-like process mix (fork/exec + temp file I/O)",
		Columns: []string{"native Mcyc", "cloaked Mcyc", "overhead %"},
	}
	jobCounts := []int{2, 4, 8}
	var runs []macroRun
	for _, jobs := range jobCounts {
		cfg := workload.ProcessMixConfig{
			Jobs:        jobs,
			UnitsPerJob: uint64(opts.scale(2_000_000, 200_000)),
			FilesPerJob: opts.scale(4, 2),
			FileKB:      opts.scale(64, 16),
		}
		sysCfg := core.Config{MemoryPages: 8192, Seed: opts.seed(), VCPUs: opts.VCPUs}
		runs = append(runs, pair(sysCfg, "mix", func() core.Program { return workload.ProcessMixProgram(cfg) })...)
	}
	cyc := sweep(opts, runs, runCycles)
	for i, jobs := range jobCounts {
		nat, clo := cyc[2*i], cyc[2*i+1]
		t.AddRow(fmt.Sprintf("jobs=%d", jobs), mcyc(nat), mcyc(clo), pct(clo, nat))
	}
	t.Note("cloaked fork is eager-copy + re-cloak: the dominant overhead source, as in the paper")
	return t
}

// RunE10 runs the ablations on a fixed mixed workload.
func RunE10(opts Options) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Ablations: mixed workload Mcycles (cloaked), relative to full design",
		Columns: []string{"Mcycles", "vs full"},
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"full design", core.Config{}},
		{"no multi-shadowing (E10a)", core.Config{VMM: vmm.Options{NoMultiShadow: true}}},
		{"untagged TLB (E10d)", core.Config{VMM: vmm.Options{FlushTLBOnSwitch: true}}},
		{"meta cache 16 (E10c)", core.Config{VMM: vmm.Options{MetaCacheSize: 16}}},
		{"tiny TLB 32 (E10d')", core.Config{VMM: vmm.Options{TLBSize: 32}}},
	}
	// A fast-disk cost model (RAM-disk-like) isolates the cloaking
	// mechanisms: with realistic disk seeks, paging I/O swamps every knob
	// this table is meant to expose.
	fastDisk := sim.DefaultCostModel()
	fastDisk.DiskSeek = 2000
	fastDisk.DiskPerByte = 1

	runs := make([]macroRun, len(variants))
	for i, v := range variants {
		cfg := v.cfg
		// Modest RAM so the mixed workload's sweep exceeds it: paging then
		// exercises encryption, metadata, and TLB churn, giving the E10c/d
		// knobs something to bite on.
		cfg.MemoryPages = 448
		cfg.Cost = &fastDisk
		cfg.Seed = opts.seed()
		cfg.VCPUs = opts.VCPUs
		runs[i] = macroRun{cfg, "mixed", func() core.Program { return mixedWorkload(opts) }, true}
	}
	cyc := sweep(opts, runs, runCycles)
	var base float64
	for i, v := range variants {
		m := mcyc(cyc[i])
		if i == 0 {
			base = m
		}
		t.AddRow(v.name, m, m/base)
	}
	t.Note("mixed workload: syscall loop + memory sweep + file I/O under one cloaked process")
	return t
}

// mixedWorkload stresses every cloaking mechanism: a hot in-RAM sweep
// interleaved with syscalls (multi-shadowing keeps those pages plaintext
// across the crossings — ablation E10a must re-encrypt them every time), a
// cold region larger than RAM touched periodically (paging: encrypt/decrypt
// cycles and metadata-cache traffic), and marshalled file I/O.
func mixedWorkload(opts Options) core.Program {
	iters := opts.scale(40, 10)
	const hotPages = 160  // resident, plaintext between crossings
	const coldPages = 640 // hot+cold exceed the E10 machine's 448-page RAM
	return func(e core.Env) {
		hot, err := e.Alloc(hotPages)
		if err != nil {
			e.Exit(1)
		}
		cold, err := e.Alloc(coldPages)
		if err != nil {
			e.Exit(1)
		}
		buf := must1(e.Alloc(4))
		fd, err := e.Open("/mix.dat", core.OCreate|core.ORdWr)
		if err != nil {
			e.Exit(1)
		}
		chunk := make([]byte, 4096)
		e.WriteMem(buf, chunk)
		for i := 0; i < iters; i++ {
			// Syscall pressure against a hot plaintext working set.
			e.Null()
			for p := 0; p < hotPages; p++ {
				e.Store64(hot+core.Addr(p*4096), uint64(i+p))
			}
			// File I/O through marshalling.
			must1(e.Pwrite(fd, buf, 4096, uint64(i%16)*4096))
			must1(e.Pread(fd, buf, 4096, uint64(i%16)*4096))
			// Periodic cold sweep forces paging churn.
			if i%4 == 0 {
				for p := 0; p < coldPages; p += 2 {
					e.Store64(cold+core.Addr(p*4096), uint64(i+p))
				}
			}
		}
		must(e.Close(fd))
		e.Exit(0)
	}
}

// --- helpers -----------------------------------------------------------------

func mcyc(c sim.Cycles) float64 { return float64(c) / 1e6 }

func pct(measured, baseline sim.Cycles) float64 {
	if baseline == 0 {
		return 0
	}
	return (float64(measured)/float64(baseline) - 1) * 100
}

func thrput(ops int, c sim.Cycles) float64 {
	if c == 0 {
		return 0
	}
	return float64(ops) / mcyc(c)
}
