package core

import (
	"testing"

	"overshadow/internal/sim"
)

// BenchmarkSwapSweepCloaked is guestos's BenchmarkSwapSweep with the process
// cloaked: round-robin stores to 96 heap pages on a 64-page machine, after a
// warm-up that backs every frame and swap block. Each store faults and pages
// its page in, which decrypts and verifies it, and one store in eight has
// the kernel page eight others out, which encrypts them.
func BenchmarkSwapSweepCloaked(b *testing.B) {
	const pages = 96
	sys := NewSystem(Config{MemoryPages: 64, Seed: 1})
	stats := sys.Stats()
	var pageIns, decrypts uint64
	sys.Register("sweep", func(e Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			b.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		store := func(i int) {
			e.Store64(base+Addr(i%pages)*PageSize, uint64(i))
		}
		for i := 0; i < 2*pages; i++ {
			store(i)
		}
		ins, decs := stats.Get(sim.CtrPageIn), stats.Get(sim.CtrPageDecrypt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store(i)
		}
		b.StopTimer()
		pageIns = stats.Get(sim.CtrPageIn) - ins
		decrypts = stats.Get(sim.CtrPageDecrypt) - decs
		e.Exit(0)
	})
	if _, err := sys.Spawn("sweep", Cloaked()); err != nil {
		b.Fatal(err)
	}
	sys.Run()
	if pageIns < uint64(b.N) || decrypts < uint64(b.N) {
		b.Fatalf("%d stores paged in %d times and decrypted %d pages, want one of each per store",
			b.N, pageIns, decrypts)
	}
}
