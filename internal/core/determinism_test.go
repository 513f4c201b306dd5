package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"overshadow/internal/guestos"
	"overshadow/internal/obs"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/workload"
)

// replayPrint is what two runs of one program on one seed must share: the
// clock, every counter, the trace's bytes and every swap-device block.
// Totals alone cannot catch a walk in Go's map order, which does the same
// work in a different order; the trace and the swap image do.
type replayPrint struct {
	clock    sim.Cycles
	counters string
	trace    [sha256.Size]byte
	swap     [sha256.Size]byte
}

func fingerprint(t *testing.T, sys *System) replayPrint {
	t.Helper()
	var trace bytes.Buffer
	spans, ring := sys.World.TraceSpans()
	if ring.Dropped != 0 {
		t.Fatalf("trace ring dropped %d spans: enlarge it", ring.Dropped)
	}
	if err := obs.WriteChromeTrace(&trace, spans, ring); err != nil {
		t.Fatal(err)
	}
	swap := sha256.New()
	d := sys.Kernel.SwapDisk()
	for b := uint64(0); b < d.NumBlocks(); b++ {
		if img := d.Peek(b); img != nil {
			swap.Write(binary.LittleEndian.AppendUint64(nil, b))
			swap.Write(img)
		}
	}
	p := replayPrint{clock: sys.Now(), counters: sys.Stats().String(),
		trace: sha256.Sum256(trace.Bytes())}
	swap.Sum(p.swap[:0])
	return p
}

// TestDeterministicReplay runs each program several times on one seed and
// requires every run to match the first — the property every experiment in
// EXPERIMENTS.md and every golden relies on. Beside an involved mixed
// workload, four programs reach the walks that once followed Go's map
// order: swap slots freed at exit and duplicated at fork, and cloaked files
// flushed at exit. Each was sized so that map order gave a different trace
// or swap image on nearly every run.
func TestDeterministicReplay(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		runs  int
		spawn func(t *testing.T, sys *System)
	}{
		{"mix-and-paging", Config{MemoryPages: 256, Seed: 1234}, 2, func(t *testing.T, sys *System) {
			sys.Register("mix", workload.ProcessMixProgram(workload.ProcessMixConfig{
				Jobs: 3, UnitsPerJob: 100_000, FilesPerJob: 2, FileKB: 16,
			}))
			sys.Register("paging", workload.PagingProgram(workload.PagingConfig{
				WorkingSetPages: 300, Sweeps: 2,
			}))
			spawn(t, sys, "mix", Cloaked())
			spawn(t, sys, "paging", Cloaked())
		}},
		{"native-exit-then-swap", Config{MemoryPages: 64, Seed: 7}, 8, func(t *testing.T, sys *System) {
			sys.Register("app", exitThenSwap(t, 120))
			spawn(t, sys, "app")
		}},
		{"cloaked-exit-then-swap", Config{MemoryPages: 64, Seed: 7, Persist: &persist.Options{}}, 8, func(t *testing.T, sys *System) {
			sys.Register("app", exitThenSwap(t, 120))
			spawn(t, sys, "app", Cloaked())
		}},
		{"native-fork-with-swapped-pages", Config{MemoryPages: 64, Seed: 7}, 8, func(t *testing.T, sys *System) {
			sys.Register("app", forkWithSwappedPages(t, 120))
			spawn(t, sys, "app")
		}},
		{"cloaked-exit-with-open-files", Config{MemoryPages: 256, Seed: 7}, 8, func(t *testing.T, sys *System) {
			sys.Register("app", exitWithOpenFiles(t, 8))
			spawn(t, sys, "app", Cloaked())
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var first replayPrint
			for i := 0; i < c.runs; i++ {
				sys := NewSystem(c.cfg)
				sys.World.EnableTrace(1 << 16)
				c.spawn(t, sys)
				sys.Run()
				got := fingerprint(t, sys)
				switch {
				case i == 0:
					first = got
				case got.clock != first.clock:
					t.Fatalf("run %d: clock diverged: %d vs %d", i, got.clock, first.clock)
				case got.counters != first.counters:
					t.Fatalf("run %d: counters diverged:\n%s\nvs\n%s", i, got.counters, first.counters)
				case got.trace != first.trace:
					t.Fatalf("run %d: trace diverged from run 0", i)
				case got.swap != first.swap:
					t.Fatalf("run %d: swap device diverged from run 0", i)
				}
			}
		})
	}
}

func spawn(t *testing.T, sys *System, name string, opts ...SpawnOpt) {
	t.Helper()
	if _, err := sys.Spawn(name, opts...); err != nil {
		t.Fatal(err)
	}
}

// dirty allocates pages and writes each one.
func dirty(t *testing.T, e Env, pages int) {
	base, err := e.Alloc(pages)
	if err != nil {
		t.Errorf("alloc: %v", err)
		e.Exit(1)
	}
	for p := 0; p < pages; p++ {
		e.Store64(base+Addr(p*PageSize), uint64(p+1))
	}
}

// forkAndWait runs child in a forked process and waits for it.
func forkAndWait(t *testing.T, e Env, child func(Env)) {
	pid, err := e.Fork(child)
	if err != nil {
		t.Errorf("fork: %v", err)
		e.Exit(1)
	}
	if _, _, err := e.WaitPid(pid); err != nil {
		t.Errorf("wait: %v", err)
	}
}

// exitThenSwap forks a child that dirties more pages than RAM holds and
// exits with many of them on swap; then the parent dirties as many. The
// child's exit frees its swap slots, and the parent's page-outs take them.
func exitThenSwap(t *testing.T, pages int) Program {
	return func(e Env) {
		forkAndWait(t, e, func(c Env) {
			dirty(t, c, pages)
			c.Exit(0)
		})
		dirty(t, e, pages)
		e.Exit(0)
	}
}

// forkWithSwappedPages dirties more pages than RAM holds, then forks, so the
// fork duplicates every swapped-out page into a fresh slot of the child's.
func forkWithSwappedPages(t *testing.T, pages int) Program {
	return func(e Env) {
		dirty(t, e, pages)
		forkAndWait(t, e, func(c Env) { c.Exit(0) })
		e.Exit(0)
	}
}

// exitWithOpenFiles writes to several cloaked files and exits with all of
// them open, so the shim flushes every one at exit.
func exitWithOpenFiles(t *testing.T, files int) Program {
	return func(e Env) {
		if err := e.Mkdir("/secret"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		buf, err := e.Alloc(1)
		if err != nil {
			t.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		for i := 0; i < files; i++ {
			fd, err := e.Open(fmt.Sprintf("/secret/f%d", i), OCreate|ORdWr)
			if err != nil {
				t.Errorf("open: %v", err)
				e.Exit(1)
			}
			e.Store64(buf, uint64(i))
			if _, err := e.Write(fd, buf, 8); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		e.Exit(0)
	}
}

// TestSeedChangesCiphertext confirms the seed actually feeds randomness
// into the run (otherwise determinism would be vacuous): the encryption IVs
// draw on the world RNG, so the ciphertext the kernel sees for identical
// plaintext must differ across seeds.
func TestSeedChangesCiphertext(t *testing.T) {
	run := func(seed uint64) []byte {
		sys := NewSystem(Config{MemoryPages: 128, Seed: seed})
		var firstOut []byte
		sys.Adversary().OnPageOut = func(_ *guestos.Kernel, p *guestos.Proc, _ uint64, frame []byte) {
			if p.Cloaked() && firstOut == nil {
				firstOut = append([]byte(nil), frame...)
			}
		}
		sys.Register("paging", workload.PagingProgram(workload.PagingConfig{
			WorkingSetPages: 200, Sweeps: 2,
		}))
		if _, err := sys.Spawn("paging", Cloaked()); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		return firstOut
	}
	a, b := run(1), run(99)
	if a == nil || b == nil {
		t.Fatal("no page-out captured")
	}
	if bytes.Equal(a, b) {
		t.Fatal("identical ciphertext across seeds; RNG not feeding IVs")
	}
}
