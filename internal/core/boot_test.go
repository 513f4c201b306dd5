package core

import (
	"math"
	"runtime"
	"testing"
)

// TestBootCostIndependentOfMemorySize pins machine boot to what the guest
// touches: sixteen times the guest pages may cost at most 32 bytes per extra
// page and no extra mallocs. Each size keeps its minimum over three boots, to
// absorb allocation by the runtime in the background.
func TestBootCostIndependentOfMemorySize(t *testing.T) {
	boot := func(pages int) (bytes, mallocs uint64) {
		bytes, mallocs = math.MaxUint64, math.MaxUint64
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys := NewSystem(Config{MemoryPages: pages})
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(sys)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		return bytes, mallocs
	}
	const small, large = 256, 4096
	smallBytes, smallMallocs := boot(small)
	largeBytes, largeMallocs := boot(large)
	if perPage := (float64(largeBytes) - float64(smallBytes)) / (large - small); perPage > 32 {
		t.Errorf("boot costs %.0f B per extra guest page (%d B at %d pages, %d B at %d), want at most 32",
			perPage, smallBytes, small, largeBytes, large)
	}
	if largeMallocs != smallMallocs {
		t.Errorf("boot mallocs grow with guest memory: %d at %d pages, %d at %d",
			smallMallocs, small, largeMallocs, large)
	}
}

// BenchmarkNewSystem measures a world's set-up: booting a 4096-page machine,
// registering a program and queueing it cloaked. Running the machine to
// completion, which also lets the spawned process exit, is not timed.
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Config{MemoryPages: 4096})
		sys.Register("app", func(Env) {})
		if _, err := sys.Spawn("app", Cloaked()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sys.Run()
		b.StartTimer()
	}
}
