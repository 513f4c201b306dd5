package guestos

import (
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Failure-injection tests: the kernel must degrade with errno, never with
// corruption or a wedged scheduler.

func TestOOMWhenRAMAndSwapExhausted(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 4)
	hv := mustVMM(t, w, vmm.Config{GuestPages: 64})
	k := NewKernel(w, hv, Config{MemoryPages: 64, SwapPages: 16})
	killed := false
	k.RegisterProgram("hog", func(e Env) {
		base, err := e.Alloc(512) // far beyond RAM+swap
		if err != nil {
			e.Exit(3) // allocation refused outright is acceptable too
		}
		for i := 0; i < 512; i++ {
			// Touching must eventually fail: the fault handler runs out of
			// frames and swap, and the process is killed (SIGSEGV-style).
			e.Store64(base+mach.Addr(i*mach.PageSize), uint64(i))
		}
		e.Exit(0)
	})
	k.RegisterProgram("parent", func(e Env) {
		pid, _ := e.Fork(func(c Env) {
			c.Exec("hog", nil)
		})
		_, status, _ := e.WaitPid(pid)
		if status != 0 {
			killed = true
		}
		e.Exit(0)
	})
	if _, err := k.Spawn("parent", SpawnOpts{}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !killed {
		t.Fatal("memory hog completed despite exhaustion")
	}
}

func TestFDTableExhaustion(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 4)
	hv := mustVMM(t, w, vmm.Config{GuestPages: 256})
	k := NewKernel(w, hv, Config{MemoryPages: 256})
	runOne(t, k, func(e Env) {
		var fds []int
		for {
			fd, err := e.Open("/f", OCreate|ORdWr)
			if err != nil {
				if err != EMFILE {
					t.Errorf("want EMFILE, got %v", err)
				}
				break
			}
			fds = append(fds, fd)
			if len(fds) > 2*maxFDs {
				t.Error("opened more fds than the table holds")
				break
			}
		}
		if len(fds) != maxFDs {
			t.Errorf("opened %d fds, want %d", len(fds), maxFDs)
		}
		// Closing one frees a slot.
		e.Close(fds[0])
		if _, err := e.Open("/f", ORdOnly); err != nil {
			t.Errorf("open after close: %v", err)
		}
		e.Exit(0)
	})
}

func TestGuestDiskFullSurfacesENOSPC(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 4)
	hv := mustVMM(t, w, vmm.Config{GuestPages: 256})
	k := NewKernel(w, hv, Config{MemoryPages: 256, FSDiskPages: 8})
	runOne(t, k, func(e Env) {
		fd, _ := e.Open("/big", OCreate|OWrOnly)
		buf, _ := e.Alloc(1)
		wrote := 0
		for i := 0; i < 100; i++ {
			_, err := e.Write(fd, buf, 4096)
			if err != nil {
				if err != ENOSPC {
					t.Errorf("want ENOSPC, got %v", err)
				}
				break
			}
			wrote++
		}
		if wrote >= 100 {
			t.Error("disk never filled")
		}
		e.Exit(0)
	})
}

func TestSegfaultOnWildAccess(t *testing.T) {
	k, _ := newTestKernel(t, 256)
	k.RegisterProgram("parent", func(e Env) {
		pid, _ := e.Fork(func(c Env) {
			// Far outside every VMA.
			c.Store64(mach.Addr(0xC0000*mach.PageSize), 1)
			c.Exit(0) // unreachable
		})
		_, status, _ := e.WaitPid(pid)
		if status != 128+11 {
			t.Errorf("status = %d, want SIGSEGV-style %d", status, 128+11)
		}
		e.Exit(0)
	})
	k.Spawn("parent", SpawnOpts{})
	k.Run()
}

func TestWriteToReadOnlyMappingKills(t *testing.T) {
	k, _ := newTestKernel(t, 256)
	k.RegisterProgram("parent", func(e Env) {
		pid, _ := e.Fork(func(c Env) {
			uc := c.(*UserCtx)
			// Map a read-only anonymous region via the raw kernel call.
			base, errno := uc.k.mmapAnon(uc.p, 2, false)
			if errno != OK {
				c.Exit(4)
			}
			_ = c.Load64(mach.Addr(base * mach.PageSize)) // read OK
			c.Store64(mach.Addr(base*mach.PageSize), 1)   // write: EACCES
			c.Exit(0)
		})
		_, status, _ := e.WaitPid(pid)
		if status == 0 {
			t.Error("write to RO mapping succeeded")
		}
		e.Exit(0)
	})
	k.Spawn("parent", SpawnOpts{})
	k.Run()
}

func TestPipePropertyChunking(t *testing.T) {
	// Arbitrary write/read chunk sizes must preserve the byte stream.
	k, _ := newTestKernel(t, 512)
	rng := sim.NewRNG(77)
	const total = 64 * 1024
	src := make([]byte, total)
	rng.Bytes(src)
	var got []byte
	runOne(t, k, func(e Env) {
		rfd, wfd, _ := e.Pipe()
		pid, _ := e.Fork(func(c Env) {
			c.Close(rfd)
			buf, _ := c.Alloc(8)
			sent := 0
			for sent < total {
				n := rng.Intn(7000) + 1
				if n > total-sent {
					n = total - sent
				}
				c.WriteMem(buf, src[sent:sent+n])
				off := 0
				for off < n {
					m, err := c.Write(wfd, buf+mach.Addr(off), n-off)
					if err != nil {
						c.Exit(1)
					}
					off += m
				}
				sent += n
			}
			c.Close(wfd)
			c.Exit(0)
		})
		e.Close(wfd)
		buf, _ := e.Alloc(8)
		tmp := make([]byte, 8192)
		for {
			n := rng.Intn(8000) + 1
			m, err := e.Read(rfd, buf, n)
			if err != nil {
				t.Errorf("read: %v", err)
				break
			}
			if m == 0 {
				break
			}
			e.ReadMem(buf, tmp[:m])
			got = append(got, tmp[:m]...)
		}
		e.WaitPid(pid)
		e.Exit(0)
	})
	if len(got) != total {
		t.Fatalf("stream length %d, want %d", len(got), total)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("stream corrupted at byte %d", i)
		}
	}
}

func TestSwapExhaustionUnderCloaking(t *testing.T) {
	// Tiny swap + cloaked overcommit: the process must die cleanly, the
	// kernel must keep running, and no plaintext may linger anywhere.
	w := sim.NewWorld(sim.DefaultCostModel(), 4)
	hv := mustVMM(t, w, vmm.Config{GuestPages: 64})
	k := NewKernel(w, hv, Config{MemoryPages: 64, SwapPages: 8})
	ranAfter := false
	k.RegisterProgram("parent", func(e Env) {
		pid, _ := e.Fork(func(c Env) {
			base, err := c.Alloc(256)
			if err != nil {
				c.Exit(3)
			}
			for i := 0; i < 256; i++ {
				c.Store64(base+mach.Addr(i*mach.PageSize), uint64(i))
			}
			c.Exit(0)
		})
		_, status, _ := e.WaitPid(pid)
		if status == 0 {
			t.Error("overcommit succeeded with 8 swap pages")
		}
		ranAfter = true
		e.Exit(0)
	})
	k.Spawn("parent", SpawnOpts{})
	k.Run()
	if !ranAfter {
		t.Fatal("kernel wedged after OOM kill")
	}
}

// TestWildLengthIsEFAULT: a length register that runs past the user address
// space is refused with EFAULT before the kernel sizes a buffer from it.
// Sized from 1<<40, that buffer would kill the host process with an
// out-of-memory fatal error; refused, it costs nothing and the process
// keeps running.
func TestWildLengthIsEFAULT(t *testing.T) {
	const wild = 1 << 40
	calls := []struct {
		name string
		call func(e Env, fd int, va mach.Addr) (int, error)
	}{
		{"read", func(e Env, fd int, va mach.Addr) (int, error) { return e.Read(fd, va, wild) }},
		{"write", func(e Env, fd int, va mach.Addr) (int, error) { return e.Write(fd, va, wild) }},
		{"pread", func(e Env, fd int, va mach.Addr) (int, error) { return e.Pread(fd, va, wild, 0) }},
		{"pwrite", func(e Env, fd int, va mach.Addr) (int, error) { return e.Pwrite(fd, va, wild, 0) }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			k, _ := newTestKernel(t, 64)
			ran := false
			runOne(t, k, func(e Env) {
				fd, err := e.Open("/f", OCreate|ORdWr)
				va, aerr := e.Alloc(1)
				if err != nil || aerr != nil {
					t.Errorf("open: %v, alloc: %v", err, aerr)
					e.Exit(1)
				}
				if n, err := tc.call(e, fd, va); n != 0 || err != EFAULT {
					t.Errorf("%s of %d bytes = (%d, %v), want (0, EFAULT)", tc.name, wild, n, err)
				}
				if n, err := e.Pwrite(fd, va, 8, 0); n != 8 || err != nil {
					t.Errorf("pwrite after the refusal = (%d, %v), want (8, nil)", n, err)
				}
				ran = true
				e.Exit(0)
			})
			if !ran {
				t.Fatal("process did not run past the refused call")
			}
		})
	}
}

// TestUserRange pins the bound at its edges: a range may end exactly at the
// top of the user address space, and one byte more, or a wrap, is refused.
func TestUserRange(t *testing.T) {
	const top = (mmu.MaxVPN + 1) * mach.PageSize
	for _, tc := range []struct {
		va, n uint64
		ok    bool
	}{
		{0, 0, true},
		{0, top, true},
		{top - mach.PageSize, mach.PageSize, true},
		{top, 0, true},
		{0, top + 1, false},
		{top - mach.PageSize, mach.PageSize + 1, false},
		{top + 1, 0, false},
		{1 << 63, 1 << 63, false}, // wraps to 0
		{^uint64(0), 2, false},
	} {
		if got := userRange(tc.va, tc.n); got != tc.ok {
			t.Errorf("userRange(%#x, %#x) = %v, want %v", tc.va, tc.n, got, tc.ok)
		}
	}
}
