package guestos

import (
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// benchKernel runs body once inside a fresh guest and reports simulated
// cycles per op through the harness-level benches; here we measure the
// host-side simulator speed of hot paths.
func benchRun(b *testing.B, body Program) {
	b.Helper()
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	hv := mustVMM(b, w, vmm.Config{GuestPages: 2048})
	k := NewKernel(w, hv, Config{MemoryPages: 2048})
	k.RegisterProgram("bench", body)
	if _, err := k.Spawn("bench", SpawnOpts{}); err != nil {
		b.Fatal(err)
	}
	k.Run()
}

func BenchmarkNullSyscall(b *testing.B) {
	benchRun(b, func(e Env) {
		for i := 0; i < b.N; i++ {
			e.Null()
		}
		e.Exit(0)
	})
}

func BenchmarkStore64(b *testing.B) {
	benchRun(b, func(e Env) {
		base, _ := e.Alloc(16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Store64(base+mach.Addr((i%16)*4096), uint64(i))
		}
		e.Exit(0)
	})
}

func BenchmarkPipePingPong(b *testing.B) {
	b.ReportAllocs()
	benchRun(b, func(e Env) {
		r1, w1, _ := e.Pipe()
		r2, w2, _ := e.Pipe()
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte{1})
		pid, _ := e.Fork(func(c Env) {
			c.Close(w1)
			c.Close(r2)
			cb, _ := c.Alloc(1)
			for {
				n, err := c.Read(r1, cb, 1)
				if err != nil || n == 0 {
					break
				}
				c.Write(w2, cb, 1)
			}
			c.Exit(0)
		})
		e.Close(r1)
		e.Close(w2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Write(w1, buf, 1)
			e.Read(r2, buf, 1)
		}
		b.StopTimer()
		e.Close(w1)
		e.Close(r2)
		e.WaitPid(pid)
		e.Exit(0)
	})
}

func BenchmarkForkWait(b *testing.B) {
	benchRun(b, func(e Env) {
		base, _ := e.Alloc(8)
		e.Store64(base, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pid, err := e.Fork(func(c Env) { c.Exit(0) })
			if err != nil {
				b.Fatal(err)
			}
			e.WaitPid(pid)
		}
		e.Exit(0)
	})
}

func BenchmarkFileWrite4K(b *testing.B) {
	benchRun(b, func(e Env) {
		fd, _ := e.Open("/bench", OCreate|ORdWr)
		buf, _ := e.Alloc(1)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Pwrite(fd, buf, 4096, uint64(i%64)*4096)
		}
		b.StopTimer()
		e.Close(fd)
		e.Exit(0)
	})
}

// The swap sweep: a native process stores round-robin to sweepPages heap
// pages on a machine of sweepMemory pages. Once a warm-up has backed every
// frame and swap block, every store faults, pages its page in from swap and,
// one store in eight, has the kernel page eight others out first.
const sweepPages, sweepMemory = 96, 64

// runSwapSweep boots the sweep machine and hands body, after the warm-up,
// a store(i) that writes page i mod sweepPages. It fails unless body's
// stores each paged in.
func runSwapSweep(tb testing.TB, body func(store func(i int)) int) {
	tb.Helper()
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	hv := mustVMM(tb, w, vmm.Config{GuestPages: sweepMemory})
	k := NewKernel(w, hv, Config{MemoryPages: sweepMemory})
	var stores int
	var pageIns uint64
	k.RegisterProgram("sweep", func(e Env) {
		base, err := e.Alloc(sweepPages)
		if err != nil {
			tb.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		store := func(i int) {
			e.Store64(base+mach.Addr(i%sweepPages)*mach.PageSize, uint64(i))
		}
		for i := 0; i < 2*sweepPages; i++ {
			store(i)
		}
		before := w.Stats.Get(sim.CtrPageIn)
		stores = body(store)
		pageIns = w.Stats.Get(sim.CtrPageIn) - before
		e.Exit(0)
	})
	if _, err := k.Spawn("sweep", SpawnOpts{}); err != nil {
		tb.Fatal(err)
	}
	k.Run()
	if pageIns < uint64(stores) {
		tb.Fatalf("%d stores paged in %d times, want one page-in per store", stores, pageIns)
	}
}

// BenchmarkSwapSweep measures one store of the swap sweep: a hidden fault, a
// guest fault, a page-in and an eighth of an eight-page eviction.
func BenchmarkSwapSweep(b *testing.B) {
	runSwapSweep(b, func(store func(int)) int {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store(i)
		}
		b.StopTimer()
		return b.N
	})
}

// TestSwapSweepAllocs pins the host allocations of the native swap path: a
// store that pages in, with its share of page-outs, allocates at most the
// *mmu.Fault delivered to the kernel.
func TestSwapSweepAllocs(t *testing.T) {
	var allocs float64
	runSwapSweep(t, func(store func(int)) int {
		i := 0
		allocs = testing.AllocsPerRun(4*sweepPages, func() {
			store(i)
			i++
		})
		return i
	})
	if allocs > 1 {
		t.Errorf("a swap-sweep store allocates %v times, want at most 1", allocs)
	}
}
