package guestos

import (
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/sim"
)

func TestForkAfterSwapDuplicatesSwappedPages(t *testing.T) {
	// Parent pushes pages to swap, then forks: the child must see the
	// swapped-out data (swap slots are duplicated, not shared).
	k, w := newTestKernel(t, 96)
	const pages = 150
	runOne(t, k, func(e Env) {
		base, _ := e.Alloc(pages)
		for i := uint64(0); i < pages; i++ {
			e.Store64(base+mach.Addr(i*mach.PageSize), i+7)
		}
		if w.Stats.Get(sim.CtrPageOut) == 0 {
			t.Error("no pages swapped before fork; test ineffective")
		}
		pid, err := e.Fork(func(c Env) {
			for i := uint64(0); i < pages; i++ {
				if got := c.Load64(base + mach.Addr(i*mach.PageSize)); got != i+7 {
					c.Exit(1)
				}
				// Diverge: child overwrites.
				c.Store64(base+mach.Addr(i*mach.PageSize), 999)
			}
			c.Exit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			e.Exit(1)
		}
		_, status, _ := e.WaitPid(pid)
		if status != 0 {
			t.Errorf("child saw wrong swapped data (status %d)", status)
		}
		// Parent still sees its own values.
		for i := uint64(0); i < pages; i += 13 {
			if got := e.Load64(base + mach.Addr(i*mach.PageSize)); got != i+7 {
				t.Errorf("parent page %d corrupted after child divergence: %d", i, got)
				break
			}
		}
		e.Exit(0)
	})
}

func TestMunmapReleasesSwapSlots(t *testing.T) {
	k, _ := newTestKernel(t, 96)
	runOne(t, k, func(e Env) {
		uc := e.(*UserCtx)
		base, _ := e.Alloc(150)
		for i := 0; i < 150; i++ {
			e.Store64(base+mach.Addr(i*mach.PageSize), 1)
		}
		swappedBefore := len(uc.p.swapped)
		if swappedBefore == 0 {
			t.Error("nothing swapped; test ineffective")
		}
		freeBefore := uc.k.swap.freeList.len()
		if err := e.Free(base); err != nil {
			t.Errorf("munmap: %v", err)
		}
		if len(uc.p.swapped) != 0 {
			t.Errorf("%d swap entries leaked", len(uc.p.swapped))
		}
		if uc.k.swap.freeList.len() != freeBefore+swappedBefore {
			t.Errorf("swap slots not returned: %d -> %d (expected +%d)",
				freeBefore, uc.k.swap.freeList.len(), swappedBefore)
		}
		e.Exit(0)
	})
}

func TestSbrkShrinkReleasesFrames(t *testing.T) {
	k, _ := newTestKernel(t, 256)
	runOne(t, k, func(e Env) {
		uc := e.(*UserCtx)
		old, _ := e.Sbrk(8)
		for i := 0; i < 8; i++ {
			e.Store64(old+mach.Addr(i*mach.PageSize), 1)
		}
		free := uc.k.mem.freePages()
		if _, err := e.Sbrk(-8); err != nil {
			t.Errorf("shrink: %v", err)
		}
		if uc.k.mem.freePages() != free+8 {
			t.Errorf("frames not released: %d -> %d", free, uc.k.mem.freePages())
		}
		// Heap access past the break faults.
		e.Exit(0)
	})
}

func TestReadDirSyscall(t *testing.T) {
	k, _ := newTestKernel(t, 256)
	runOne(t, k, func(e Env) {
		e.Mkdir("/d")
		for _, n := range []string{"/d/z", "/d/a", "/d/m"} {
			fd, _ := e.Open(n, OCreate|OWrOnly)
			e.Close(fd)
		}
		names, err := e.ReadDir("/d")
		if err != nil {
			t.Errorf("readdir: %v", err)
		}
		if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
			t.Errorf("names = %v", names)
		}
		if _, err := e.ReadDir("/d/a"); err != ENOTDIR {
			t.Errorf("readdir on file: %v", err)
		}
		if _, err := e.ReadDir("/missing"); err != ENOENT {
			t.Errorf("readdir missing: %v", err)
		}
		e.Exit(0)
	})
}

func TestFsyncSyscall(t *testing.T) {
	k, _ := newTestKernel(t, 256)
	runOne(t, k, func(e Env) {
		fd, _ := e.Open("/f", OCreate|OWrOnly)
		if err := e.Fsync(fd); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := e.Fsync(42); err != EBADF {
			t.Errorf("fsync bad fd: %v", err)
		}
		e.Exit(0)
	})
}

func TestHeapBeyondBreakFaults(t *testing.T) {
	k, _ := newTestKernel(t, 256)
	k.RegisterProgram("parent", func(e Env) {
		pid, _ := e.Fork(func(c Env) {
			c.Sbrk(2)
			// One past the break: outside the heap VMA -> fatal.
			c.Store64(mach.Addr((LayoutHeapBase+2)*mach.PageSize), 1)
			c.Exit(0)
		})
		_, status, _ := e.WaitPid(pid)
		if status == 0 {
			t.Error("access beyond break succeeded")
		}
		e.Exit(0)
	})
	k.Spawn("parent", SpawnOpts{})
	k.Run()
}

func TestAllocFreeReuseAddressSpace(t *testing.T) {
	// The mmap cursor only grows; repeated Alloc/Free must not exhaust the
	// area for reasonable counts, and freed ranges must fault.
	k, _ := newTestKernel(t, 256)
	k.RegisterProgram("parent", func(e Env) {
		pid, _ := e.Fork(func(c Env) {
			base, _ := c.Alloc(2)
			c.Store64(base, 1)
			c.Free(base)
			c.Store64(base, 2) // must segfault
			c.Exit(0)
		})
		_, status, _ := e.WaitPid(pid)
		if status == 0 {
			t.Error("use-after-free succeeded")
		}
		e.Exit(0)
	})
	k.Spawn("parent", SpawnOpts{})
	k.Run()
}

// TestFreeListMatchesPrefilledStack drives a seeded mix of alloc and free
// against a reference stack: a slice pre-filled with hi-1 ... lo, popped and
// pushed at its end. Phases that favour alloc run the list dry; phases that
// favour free refill it.
func TestFreeListMatchesPrefilledStack(t *testing.T) {
	const hi = 64
	for lo := uint64(0); lo <= 1; lo++ {
		f := freeList{next: lo, hi: hi}
		var ref, held []uint64
		for x := uint64(hi); x > lo; x-- {
			ref = append(ref, x-1)
		}
		rng := sim.NewRNG(40 + lo)
		dry := 0
		for step := 0; step < 10000; step++ {
			allocOdds := 3 // out of 4
			if step/500%2 == 1 {
				allocOdds = 1
			}
			if rng.Intn(4) < allocOdds {
				got, ok := f.alloc()
				var want uint64
				wantOK := len(ref) > 0
				if wantOK {
					want, ref = ref[len(ref)-1], ref[:len(ref)-1]
				}
				if ok != wantOK || got != want {
					t.Fatalf("lo=%d step %d: alloc = (%d, %v), want (%d, %v)", lo, step, got, ok, want, wantOK)
				}
				if ok {
					held = append(held, got)
				} else {
					dry++
				}
			} else if len(held) > 0 {
				i := rng.Intn(len(held))
				x := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				f.free(x)
				ref = append(ref, x)
			}
			if f.len() != len(ref) {
				t.Fatalf("lo=%d step %d: len = %d, want %d", lo, step, f.len(), len(ref))
			}
		}
		if dry == 0 {
			t.Fatalf("lo=%d: the list never ran dry; test ineffective", lo)
		}
	}
}
