package core_test

import (
	"bytes"
	"testing"

	"overshadow/internal/core"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// sinkMarker is stamped at the start of every page of the cloaked working
// set; it is long and specific enough that no export or ciphertext block
// contains it by accident.
const sinkMarker = "cloaked-plaintext-sink-marker/7f3a9c"

// TestPlaintextNeverReachesSinks is the runtime pin of the paper's secrecy
// property at every place bytes leave the machine: a cloaked workload whose
// working set exceeds RAM stamps a marker into each page, so pages are
// encrypted and swapped out, and reads every page back through its own
// view. With trace, metrics, and profile all on, the marker must be absent
// from the Chrome-trace export and the run report and from every swap-disk
// block.
func TestPlaintextNeverReachesSinks(t *testing.T) {
	const memPages, pages = 128, 220
	sys := core.NewSystem(core.Config{MemoryPages: memPages, Seed: 5})
	sys.World.EnableTrace(1 << 14)
	m := sys.World.EnableMetrics(nil)
	p := sys.World.EnableProfile()
	readBack := 0
	sys.Register("secret", func(e core.Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			t.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		for i := 0; i < pages; i++ {
			e.WriteMem(base+core.Addr(i*core.PageSize), []byte(sinkMarker))
		}
		got := make([]byte, len(sinkMarker))
		for i := 0; i < pages; i++ {
			e.ReadMem(base+core.Addr(i*core.PageSize), got)
			if string(got) == sinkMarker {
				readBack++
			}
		}
		e.Exit(0)
	})
	if _, err := sys.Spawn("secret", core.Cloaked()); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	sys.Run()

	if readBack != pages {
		t.Fatalf("owner read the marker back from %d of %d pages", readBack, pages)
	}
	if sys.Stats().Get(sim.CtrPageOut) == 0 || sys.Stats().Get(sim.CtrPageEncrypt) == 0 {
		t.Fatal("no cloaked page was encrypted and swapped out; test ineffective")
	}

	spans, ring := sys.World.TraceSpans()
	var trace, report bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, spans, ring); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteReport(&report, obs.BuildReport(m, p, ring.Dropped)); err != nil {
		t.Fatal(err)
	}
	marker := []byte(sinkMarker)
	for _, export := range []struct {
		name string
		data []byte
	}{
		{"Chrome-trace export", trace.Bytes()},
		{"run report", report.Bytes()},
	} {
		if len(export.data) == 0 {
			t.Errorf("%s is empty", export.name)
		}
		if bytes.Contains(export.data, marker) {
			t.Errorf("plaintext marker found in the %s", export.name)
		}
	}
	d := sys.Kernel.SwapDisk()
	for b := uint64(0); b < d.NumBlocks(); b++ {
		if bytes.Contains(d.PokeRaw(b), marker) {
			t.Fatalf("plaintext marker found on swap-disk block %d", b)
		}
	}
}
