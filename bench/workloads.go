package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"overshadow/internal/core"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/workload"
)

// world is one simulated machine the benchmark boots, runs and checks. A
// pass runs every world of a workload once, in order, on one goroutine.
type world struct {
	id      int
	label   string
	cloaked bool
	// pair links a native world to the cloaked world that runs the same
	// program with the same machine seed; -1 when the world is unpaired.
	pair int
	cfg  core.Config
	prog core.Program
	// seal is set only in the seal workload.
	seal *sealPlan
}

// sealPlan is what a seal world does besides running its victim: migrate
// at each migrateAt cycle, or crash at each crashAt cycle and reboot. The
// first crash point is the world machine's cfg.CrashAt; each later one
// crashes a fresh machine of the same seed.
type sealPlan struct {
	pages     int
	migrateAt []sim.Cycles
	crashAt   []sim.Cycles
}

// workloadSpec names one seeded stream of worlds and why it exists.
type workloadSpec struct {
	name string
	gen  func(r *rand.Rand, seed uint64, n int) []*world
}

// Calibrated sizes (see README.md): each keeps one untraced pass of 120
// worlds at about 4-6 s of host time on a 2-core x86-64 container.
const (
	computePages = 4096 // machine RAM for compute and kv worlds
	sealRAM      = 96   // seal machine RAM, pages
	sealDstRAM   = 192  // migration destination RAM: the whole victim fits
)

// computeWork is each kernel's work per world in KiB-iterations: a world
// repeats its kernel max(1, work/ws) times, so worlds of one kernel cost
// about the same host time whatever their working set, and the world-time
// percentiles fall in a dense part of the distribution. One iteration of
// intsort or matmul already costs more at most sizes; they form the slow
// tail. rle and purecompute charge many simulated cycles per host ns and
// are kept small so the access-charging kernels dominate simulated time.
var computeWork = map[workload.CPUKernel]int{
	workload.KernelPointerChase: 1200,
	workload.KernelChecksum:     1300,
	workload.KernelRLE:          2300,
}

var workloads = []workloadSpec{
	{"compute", genCompute},
	{"paging", genPaging},
	{"kv", genKV},
	{"seal", genSeal},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// stratified draws n integers in [lo, hi], one from the middle half of
// each of n equal strata, in shuffled order. Every seed then covers the
// whole range evenly, so per-pass totals and percentiles stay close across
// seeds while each world's parameters still depend on the seed.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	width := float64(hi-lo+1) / float64(n)
	for i := range out {
		out[i] = lo + int(width*(float64(i)+0.25+0.5*r.Float64()))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// worldSeed derives the machine seed of world (or pair) i.
func worldSeed(seed uint64, i int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1
	x ^= x >> 31
	return x | 1
}

// pairWorlds expands one program into its native and cloaked worlds.
func pairWorlds(out []*world, seed uint64, label string, cfg core.Config, prog core.Program) []*world {
	p := len(out) / 2
	cfg.Seed = worldSeed(seed, p)
	for _, cloaked := range []bool{false, true} {
		out = append(out, &world{id: len(out), label: label, cloaked: cloaked, pair: p, cfg: cfg, prog: prog})
	}
	return out
}

// genCompute: the six E3 kernels, an equal share of pairs each, working
// sets drawn over 32-256 KiB. All of it fits in RAM, so host time goes to
// the per-access charge path and cloaking should stay about free.
func genCompute(r *rand.Rand, seed uint64, n int) []*world {
	kernels := workload.AllCPUKernels()
	pairs := n / 2
	perKernel := make([][]int, len(kernels))
	for k := range kernels {
		cnt := pairs / len(kernels)
		if k < pairs%len(kernels) {
			cnt++
		}
		// Whole pages: the kernels size their allocation in whole pages.
		perKernel[k] = stratified(r, cnt, 32/4, 256/4)
	}
	var out []*world
	for i := 0; i < pairs; i++ {
		k := i % len(kernels)
		ws := 4 * perKernel[k][i/len(kernels)]
		kern := kernels[k]
		iters := max(1, (computeWork[kern]+ws/2)/ws)
		prog := workload.CPUProgram(workload.CPUConfig{Kernel: kern, WorkingSetK: ws, Iters: iters})
		out = pairWorlds(out, seed, fmt.Sprintf("%s/%dK/x%d", kern, ws, iters), core.Config{MemoryPages: computePages}, prog)
	}
	return out
}

// genPaging: page-stride sweeps over a working set 1.2-2.0x a 256-512 page
// RAM. One drawn size sets a world's page visits (614-4096, log-uniform):
// the sweep count (2-4) grows with it and the working set (307-1024 pages)
// is the visits over the sweeps, so cost is a smooth function of a single
// stratified draw. The first sweep writes; each later sweep writes with a
// per-world drawn probability and otherwise checks the stamps. Every sweep
// pages the working set out and back in: page-outs encrypt, page-ins
// verify and decrypt.
func genPaging(r *rand.Rand, seed uint64, n int) []*world {
	pairs := n / 2
	size := stratified(r, pairs, 0, 999)
	ratio := stratified(r, pairs, 120, 200)
	writePct := stratified(r, pairs, 10, 90)
	var out []*world
	for i := 0; i < pairs; i++ {
		x := float64(size[i]) / 1000
		visits := 614 * math.Pow(4096.0/614, x)
		sweeps := 2 + int(3*x)
		pages := max(307, int(visits)/sweeps)
		ram := min(max(pages*100/ratio[i], 256), 512)
		writes := make([]bool, sweeps)
		writes[0] = true
		for s := 1; s < len(writes); s++ {
			writes[s] = r.IntN(100) < writePct[i]
		}
		label := fmt.Sprintf("ram%d/ws%d/x%d/w%d%%", ram, pages, sweeps, writePct[i])
		out = pairWorlds(out, seed, label, core.Config{MemoryPages: ram}, pagingProgram(pages, writes))
	}
	return out
}

// pagingProgram sweeps pages of a working set; a write sweep stamps every
// page, a read sweep checks the stamp of the last write sweep.
func pagingProgram(pages int, writes []bool) core.Program {
	return func(e core.Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			e.Exit(1)
		}
		last := 0
		for s, write := range writes {
			if write {
				last = s
			}
			for p := 0; p < pages; p++ {
				va := base + core.Addr(p*core.PageSize)
				stamp := uint64(last)<<32 | uint64(p+1)
				if write {
					e.Store64(va, stamp)
				} else if e.Load64(va) != stamp {
					e.Exit(2)
				}
				e.Compute(500)
			}
		}
		e.Exit(0)
	}
}

// genKV: the E12 key-value service over pipes with drawn value sizes, key
// counts and put ratios. Syscall and IPC bound, with almost no crypto or
// disk, and a world's NewSystem costs about as much as its run.
func genKV(r *rand.Rand, seed uint64, n int) []*world {
	pairs := n / 2
	vals := stratified(r, pairs, 64, 252)
	keys := stratified(r, pairs, 64, 256)
	puts := stratified(r, pairs, 10, 50)
	ops := stratified(r, pairs, 800, 3200)
	var out []*world
	for i := 0; i < pairs; i++ {
		cfg := workload.KVConfig{Ops: ops[i], ValueBytes: vals[i], Keys: keys[i], PutRatio: puts[i]}
		label := fmt.Sprintf("v%d/k%d/p%d%%/n%d", vals[i], keys[i], puts[i], ops[i])
		out = pairWorlds(out, seed, label, core.Config{MemoryPages: computePages}, workload.KVProgram(cfg))
	}
	return out
}

// sealMarker is the plaintext the seal victim plants in every page; it must
// never appear on a disk or in a checkpoint blob.
var sealMarker = []byte("SEAL-BENCH-SECRET-0123456789abcd")

// sealShapes are the victim sizes; the run length of each is measured once
// at generation, and the seed draws migration and crash points within it.
var sealShapes = []int{104, 120, 136, 152}

func sealConfig() core.Config {
	// The victim never touches files: a small filesystem device keeps boot
	// and the secrecy scan of the disks cheap.
	return core.Config{MemoryPages: sealRAM, FSDiskPages: 1024, Persist: &persist.Options{CheckpointEvery: 16}}
}

// genSeal: cloaked swap-heavy victims on a journaled 96-page machine. Half
// the worlds migrate at 2-4 drawn points, each checkpoint restored on a
// fresh machine; the other half crash at 2-4 drawn points, each followed by
// a reboot. The only workload that exercises persist and migrate.
func genSeal(r *rand.Rand, seed uint64, n int) []*world {
	total := make(map[int]sim.Cycles, len(sealShapes))
	for _, pages := range sealShapes {
		total[pages] = sealProbe(pages)
	}
	var out []*world
	for i := 0; i < n; i++ {
		// Each half cycles through every (victim size, point count) pair
		// equally, so the mix of world costs is the same on every seed and
		// only the points themselves are drawn.
		c, j := i%2, i/2
		pages := sealShapes[j%len(sealShapes)]
		k := 2 + j/len(sealShapes)%3
		cfg := sealConfig()
		cfg.Seed = worldSeed(seed, i)
		plan := &sealPlan{pages: pages}
		var points []sim.Cycles
		for _, pct := range stratified(r, k, 10, 90) {
			points = append(points, total[pages]*sim.Cycles(pct)/100)
		}
		label := fmt.Sprintf("p%d/x%d", pages, k)
		if c == 0 {
			slices.Sort(points)
			plan.migrateAt = points
			label = "migrate/" + label
		} else {
			plan.crashAt = points
			cfg.CrashAt = points[0]
			label = "crash/" + label
		}
		out = append(out, &world{id: i, label: label, cloaked: true, pair: -1, cfg: cfg,
			prog: sealVictim(pages), seal: plan})
	}
	return out
}

// sealProbe runs a victim shape to completion and returns its length.
func sealProbe(pages int) sim.Cycles {
	sys := core.NewSystem(sealConfig())
	sys.Register("victim", sealVictim(pages))
	if _, err := sys.Spawn("victim", core.Cloaked()); err != nil {
		panic(err)
	}
	sys.Run()
	return sys.Now()
}

// sealVictim stamps every page of a working set larger than RAM with the
// marker and its index, so page-outs and journal records flow throughout;
// restore, reboot and the resume check read the pages back.
func sealVictim(pages int) core.Program {
	return func(e core.Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			e.Exit(1)
		}
		for i := 0; i < pages; i++ {
			va := base + core.Addr(i*core.PageSize)
			e.WriteMem(va, sealMarker)
			e.Store64(va+64, uint64(i))
			e.Compute(200)
		}
		e.Exit(0)
	}
}

// resumeProgram re-creates the recovered marker pages in a fresh cloaked
// domain and reads them back through its own view.
func resumeProgram(pages int, recovered [][]byte) core.Program {
	return func(e core.Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			e.Exit(1)
		}
		for _, data := range recovered {
			e.WriteMem(base+core.Addr(stampOf(data))*core.PageSize, data)
		}
		head := make([]byte, len(sealMarker))
		for _, data := range recovered {
			i := stampOf(data)
			va := base + core.Addr(i)*core.PageSize
			e.ReadMem(va, head)
			if !bytes.Equal(head, sealMarker) || e.Load64(va+64) != i {
				e.Exit(3)
			}
		}
		e.Exit(0)
	}
}

func stampOf(page []byte) uint64 { return binary.LittleEndian.Uint64(page[64:72]) }
