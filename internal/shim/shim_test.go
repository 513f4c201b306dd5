package shim_test

// The shim is exercised through full systems (it cannot run without the
// kernel and VMM underneath), so these tests build core systems that stress
// shim-specific mechanisms: files spanning several 64-page mmap windows,
// descriptor duplication, and lifecycle interactions.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"overshadow/internal/core"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

func newSys(t *testing.T, memPages int) *core.System {
	t.Helper()
	return core.NewSystem(core.Config{
		MemoryPages: memPages,
		Seed:        3,
	})
}

// window is the shim's cloaked-file window in bytes: 64 pages.
const window = 64 * core.PageSize

// run spawns one cloaked program and runs the system.
func run(t *testing.T, sys *core.System, body core.Program) {
	t.Helper()
	sys.Register("t", body)
	if _, err := sys.Spawn("t", core.Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
}

func TestTinyWindowForcesRemaps(t *testing.T) {
	// Sequential I/O over a 160-page file must remap the 64-page window
	// twice, flushing dirty pages each time — the stress case for the
	// mmap-emulation bookkeeping.
	sys := newSys(t, 2048)
	const total = 160 * core.PageSize
	var got []byte
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(2)
		chunk := make([]byte, core.PageSize)
		fd, err := e.Open("/secret/big", core.OCreate|core.ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			e.Exit(1)
		}
		for off := 0; off < total; off += len(chunk) {
			for i := range chunk {
				chunk[i] = byte(off/core.PageSize + i)
			}
			e.WriteMem(buf, chunk)
			if _, err := e.Write(fd, buf, len(chunk)); err != nil {
				t.Errorf("write at %d: %v", off, err)
				e.Exit(1)
			}
		}
		// A read crossing the second window boundary.
		if _, err := e.Lseek(fd, 2*window-100, core.SeekSet); err != nil {
			t.Errorf("lseek: %v", err)
		}
		out := make([]byte, 200)
		n, err := e.Read(fd, buf, 200)
		if err != nil || n != 200 {
			t.Errorf("read = %d,%v", n, err)
		}
		e.ReadMem(buf, out)
		got = out
		e.Close(fd)
		e.Exit(0)
	})
	// Expected bytes straddle pages 127 and 128.
	want := make([]byte, 200)
	for i := range want {
		off := 2*window - 100 + i
		want[i] = byte(off/core.PageSize + off%core.PageSize)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("window-crossing read wrong\n got %x\nwant %x", got[:16], want[:16])
	}
}

func TestCloakedAppendMode(t *testing.T) {
	sys := newSys(t, 1024)
	var size uint64
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("0123456789"))
		fd, _ := e.Open("/secret/log", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, 10)
		e.Close(fd)
		// Append twice more.
		fd, _ = e.Open("/secret/log", core.OWrOnly|core.OAppend)
		e.Write(fd, buf, 10)
		e.Write(fd, buf, 10)
		e.Close(fd)
		st, _ := e.Stat("/secret/log")
		_ = st
		fd, _ = e.Open("/secret/log", core.ORdOnly)
		fst, _ := e.Fstat(fd)
		size = fst.Size
		e.Close(fd)
		e.Exit(0)
	})
	if size != 30 {
		t.Fatalf("appended size = %d, want 30", size)
	}
}

func TestCloakedPreadPwrite(t *testing.T) {
	// The write lands in the file's third window.
	const at = 2*window + 10000
	sys := newSys(t, 1024)
	var got []byte
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("ABCDEFGH"))
		fd, _ := e.Open("/secret/f", core.OCreate|core.ORdWr)
		if _, err := e.Pwrite(fd, buf, 8, at); err != nil {
			t.Errorf("pwrite: %v", err)
		}
		out, _ := e.Alloc(1)
		n, err := e.Pread(fd, out, 4, at+2)
		if err != nil || n != 4 {
			t.Errorf("pread = %d,%v", n, err)
		}
		got = make([]byte, 4)
		e.ReadMem(out, got)
		// Position must be independent of pread/pwrite.
		if pos, _ := e.Lseek(fd, 0, core.SeekCur); pos != 0 {
			t.Errorf("pos = %d", pos)
		}
		e.Close(fd)
		e.Exit(0)
	})
	if string(got) != "CDEF" {
		t.Fatalf("pread got %q", got)
	}
}

func TestCloakedTruncateReopen(t *testing.T) {
	sys := newSys(t, 1024)
	var second []byte
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("first contents"))
		fd, _ := e.Open("/secret/f", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, 14)
		e.Close(fd)
		// Reopen with O_TRUNC: old metadata must be discarded cleanly.
		e.WriteMem(buf, []byte("second!"))
		fd, _ = e.Open("/secret/f", core.OWrOnly|core.OTrunc)
		e.Write(fd, buf, 7)
		e.Close(fd)
		fd, _ = e.Open("/secret/f", core.ORdOnly)
		out, _ := e.Alloc(1)
		n, _ := e.Read(fd, out, 64)
		second = make([]byte, n)
		e.ReadMem(out, second)
		e.Close(fd)
		e.Exit(0)
	})
	if string(second) != "second!" {
		t.Fatalf("after truncate+rewrite got %q", second)
	}
}

func TestCloakedUnlinkDropsVault(t *testing.T) {
	sys := newSys(t, 1024)
	var reread []byte
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("gone soon"))
		fd, _ := e.Open("/secret/f", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, 9)
		e.Close(fd)
		if err := e.Unlink("/secret/f"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		// Recreate under the same name: a fresh file, fresh vault.
		e.WriteMem(buf, []byte("new life!"))
		fd, _ = e.Open("/secret/f", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, 9)
		e.Close(fd)
		fd, _ = e.Open("/secret/f", core.ORdOnly)
		out, _ := e.Alloc(1)
		n, _ := e.Read(fd, out, 64)
		reread = make([]byte, n)
		e.ReadMem(out, reread)
		e.Close(fd)
		e.Exit(0)
	})
	if string(reread) != "new life!" {
		t.Fatalf("got %q", reread)
	}
}

func TestCloakedDupSharesFileIndependentWindow(t *testing.T) {
	// The file's first and third windows hold the same bytes; the original
	// descriptor reads the first, its duplicate the third.
	const far = 2 * window
	sys := newSys(t, 1024)
	var a, b []byte
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("0123456789abcdef"))
		fd, _ := e.Open("/secret/f", core.OCreate|core.ORdWr)
		e.Write(fd, buf, 16)
		e.Pwrite(fd, buf, 16, far)
		fd2, err := e.Dup(fd)
		if err != nil {
			t.Errorf("dup: %v", err)
		}
		out, _ := e.Alloc(1)
		e.Lseek(fd, 0, core.SeekSet)
		n, _ := e.Read(fd, out, 4)
		a = make([]byte, n)
		e.ReadMem(out, a)
		e.Lseek(fd2, far+8, core.SeekSet)
		n, _ = e.Read(fd2, out, 4)
		b = make([]byte, n)
		e.ReadMem(out, b)
		e.Close(fd)
		e.Close(fd2)
		e.Exit(0)
	})
	if string(a) != "0123" || string(b) != "89ab" {
		t.Fatalf("dup reads: %q %q", a, b)
	}
}

func TestForkWithOpenCloakedFile(t *testing.T) {
	sys := newSys(t, 2048)
	var childRead []byte
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("shared across fork"))
		fd, _ := e.Open("/secret/f", core.OCreate|core.ORdWr)
		e.Write(fd, buf, 18)
		pid, err := e.Fork(func(c core.Env) {
			out, _ := c.Alloc(1)
			n, err := c.Pread(fd, out, 18, 0)
			if err != nil {
				t.Errorf("child pread: %v", err)
				c.Exit(1)
			}
			childRead = make([]byte, n)
			c.ReadMem(out, childRead)
			c.Exit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			e.Exit(1)
		}
		e.WaitPid(pid)
		e.Close(fd)
		e.Exit(0)
	})
	if string(childRead) != "shared across fork" {
		t.Fatalf("child read %q", childRead)
	}
}

// iagoRejections counts the audit log's rejected kernel returns.
func iagoRejections(sys *core.System) int {
	n := 0
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIagoRejected {
			n++
		}
	}
	return n
}

// TestThreadsShareOneMappingTable: a region one thread maps is in the table
// every sibling validates against. Thread B starts running before the first
// thread maps its region, so a table copied when B starts would not hold it;
// the kernel then answers B's next mmap with that region's base, and B's
// shim must reject the alias.
func TestThreadsShareOneMappingTable(t *testing.T) {
	for _, vcpus := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcpus%d", vcpus), func(t *testing.T) {
			sys := core.NewSystem(core.Config{MemoryPages: 1024, Seed: 3, VCPUs: vcpus})
			var aBase core.Addr
			forge, forged := false, 0
			sys.Adversary().OnSysRet = func(_ *guestos.Kernel, _ *guestos.Proc, no guestos.Sysno, kregs *vmm.Regs) {
				if forge && no == guestos.SysMmap {
					kregs.GPR[0] = uint64(aBase)
					forge = false
					forged++
				}
			}
			var bErr error
			bStarted, bRan := false, false
			run(t, sys, func(e core.Env) {
				tid, err := e.SpawnThread(func(te core.Env) {
					bStarted = true
					for aBase == 0 {
						te.Yield()
					}
					forge = true
					_, bErr = te.Alloc(4)
					bRan = true
				})
				if err != nil {
					t.Errorf("spawn: %v", err)
					e.Exit(1)
				}
				for !bStarted {
					e.Yield()
				}
				base, err := e.Alloc(4)
				if err != nil {
					t.Errorf("alloc: %v", err)
					e.Exit(1)
				}
				aBase = base
				if err := e.JoinThread(tid); err != nil {
					t.Errorf("join: %v", err)
				}
				e.Exit(0)
			})
			if !bRan || forged != 1 {
				t.Fatalf("thread B ran %v, %d mmap returns forged; want one", bRan, forged)
			}
			if !errors.Is(bErr, guestos.EFAULT) {
				t.Fatalf("aliased mmap return: err %v, want EFAULT", bErr)
			}
			if n := iagoRejections(sys); n != 1 {
				t.Fatalf("%d Iago rejections logged, want 1", n)
			}
		})
	}
}

// TestForkedChildValidatesAgainstForkTimeTable: the parent maps a region
// after the fork while the child blocks on a pipe, and the child's next
// mapping then gets the same base from the honest kernel (its address space
// is the fork-time copy). The child's shim must accept it: the region is
// not mapped in the child, so seeing the parent's live table would reject
// an honest return as an alias.
func TestForkedChildValidatesAgainstForkTimeTable(t *testing.T) {
	sys := newSys(t, 2048)
	var parentBase, childBase core.Addr
	var childErr error
	run(t, sys, func(e core.Env) {
		r, w, err := e.Pipe()
		if err != nil {
			t.Errorf("pipe: %v", err)
			e.Exit(1)
		}
		buf, _ := e.Alloc(1) // mapped before the fork: in both tables
		pid, err := e.Fork(func(c core.Env) {
			if n, err := c.Read(r, buf, 1); n != 1 || err != nil {
				t.Errorf("child read = %d, %v", n, err)
				c.Exit(1)
			}
			childBase, childErr = c.Alloc(4)
			c.Exit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			e.Exit(1)
		}
		parentBase, err = e.Alloc(4)
		if err != nil {
			t.Errorf("parent alloc: %v", err)
		}
		e.Write(w, buf, 1)
		e.WaitPid(pid)
		e.Exit(0)
	})
	if childErr != nil {
		t.Fatalf("child alloc: %v", childErr)
	}
	if childBase != parentBase {
		t.Fatalf("child mapped %#x, parent %#x: the kernel gave different bases, so the test exercises nothing", childBase, parentBase)
	}
	if n := iagoRejections(sys); n != 0 {
		t.Fatalf("%d Iago rejections under an honest kernel", n)
	}
}

func TestAllocFreeCycleRegions(t *testing.T) {
	sys := newSys(t, 1024)
	run(t, sys, func(e core.Env) {
		for i := 0; i < 20; i++ {
			base, err := e.Alloc(4)
			if err != nil {
				t.Errorf("alloc %d: %v", i, err)
				e.Exit(1)
			}
			e.Store64(base, uint64(i))
			if e.Load64(base) != uint64(i) {
				t.Errorf("round trip %d failed", i)
			}
			if err := e.Free(base); err != nil {
				t.Errorf("free %d: %v", i, err)
			}
		}
		if err := e.Free(0x123000); err == nil {
			t.Error("free of unallocated region succeeded")
		}
		e.Exit(0)
	})
}

func TestExecFromCloakedDestroysDomainState(t *testing.T) {
	sys := newSys(t, 1024)
	secondRan := false
	sys.Register("second", func(e core.Env) {
		base, _ := e.Alloc(1)
		e.Store64(base, 77)
		if e.Load64(base) != 77 {
			t.Error("memory broken in exec'd image")
		}
		secondRan = true
		e.Exit(0)
	})
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte("pre-exec state"))
		fd, _ := e.Open("/secret/pre", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, 14)
		// Exec without closing fd: the shim must flush cloaked files.
		if err := e.Exec("second", nil); err != nil {
			t.Errorf("exec: %v", err)
			e.Exit(1)
		}
	})
	if !secondRan {
		t.Fatal("second image never ran")
	}
	// The pre-exec cloaked file must have been flushed (ciphertext).
	data, err := sys.ReadGuestFile("/secret/pre")
	if err != nil {
		t.Fatalf("pre-exec file lost: %v", err)
	}
	if bytes.Contains(data, []byte("pre-exec")) {
		t.Fatal("plaintext leaked to FS across exec")
	}
}

func TestMarshallingCountsBytes(t *testing.T) {
	sys := newSys(t, 1024)
	const n = 10 * 1024
	run(t, sys, func(e core.Env) {
		buf, _ := e.Alloc(4)
		fd, _ := e.Open("/plain", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, n)
		e.Close(fd)
		e.Exit(0)
	})
	if got := sys.Stats().Get(sim.CtrShimMarshalBytes); got < n {
		t.Fatalf("marshalled bytes = %d, want >= %d", got, n)
	}
}

func TestScratchRegionIsUncloaked(t *testing.T) {
	// The kernel must be able to read the scratch region in plaintext —
	// that is its purpose. Verify via the write path: data written to a
	// plain file arrives intact (it crossed scratch).
	sys := newSys(t, 1024)
	payload := []byte("plainly visible, by design")
	run(t, sys, func(e core.Env) {
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, payload)
		fd, _ := e.Open("/plain", core.OCreate|core.OWrOnly)
		e.Write(fd, buf, len(payload))
		e.Close(fd)
		e.Exit(0)
	})
	data, _ := sys.ReadGuestFile("/plain")
	if !bytes.Equal(data, payload) {
		t.Fatalf("file = %q", data)
	}
}

func TestMarshalledPlainFileSurface(t *testing.T) {
	// Exercises the full marshalled (plain-file) surface of the shim in
	// one pass: read/pread/pwrite/lseek/truncate/fsync/readdir/pipe and
	// the trivial pass-throughs.
	sys := newSys(t, 2048)
	run(t, sys, func(e core.Env) {
		if !e.Cloaked() {
			t.Error("Cloaked() false under shim")
		}
		if e.Pid() == 0 || e.PPid() != 0 {
			t.Errorf("identity: pid=%d ppid=%d", e.Pid(), e.PPid())
		}
		_ = e.Args()
		t0 := e.Time()
		e.Compute(100)
		e.Null()
		if e.Time() <= t0 {
			t.Error("time did not advance")
		}

		// Plain-file marshalled I/O.
		e.Mkdir("/dir")
		fd, err := e.Open("/dir/plain", core.OCreate|core.ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			e.Exit(1)
		}
		buf, _ := e.Alloc(20)
		payload := make([]byte, 70*1024) // > scratch (64 pages=256KiB? no, 256KiB) — big enough to chunk reads
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		e.WriteMem(buf, payload)
		n, err := e.Write(fd, buf, len(payload))
		if err != nil || n != len(payload) {
			t.Errorf("write = %d, %v", n, err)
		}
		if pos, err := e.Lseek(fd, 0, core.SeekSet); err != nil || pos != 0 {
			t.Errorf("lseek = %d, %v", pos, err)
		}
		out, _ := e.Alloc(20)
		n, err = e.Read(fd, out, len(payload))
		if err != nil || n != len(payload) {
			t.Errorf("read = %d, %v", n, err)
		}
		got := make([]byte, len(payload))
		e.ReadMem(out, got)
		if !bytes.Equal(got, payload) {
			t.Error("marshalled read corrupted data")
		}
		// pread/pwrite.
		if n, err := e.Pwrite(fd, buf, 100, 9999); err != nil || n != 100 {
			t.Errorf("pwrite = %d, %v", n, err)
		}
		if n, err := e.Pread(fd, out, 100, 9999); err != nil || n != 100 {
			t.Errorf("pread = %d, %v", n, err)
		}
		small := make([]byte, 100)
		e.ReadMem(out, small)
		if !bytes.Equal(small, payload[:100]) {
			t.Error("pread round trip corrupted")
		}
		if err := e.Fsync(fd); err != nil {
			t.Errorf("fsync: %v", err)
		}
		e.Close(fd)

		if err := e.Truncate("/dir/plain", 10); err != nil {
			t.Errorf("truncate: %v", err)
		}
		st, _ := e.Stat("/dir/plain")
		if st.Size != 10 {
			t.Errorf("size = %d", st.Size)
		}
		names, err := e.ReadDir("/dir")
		if err != nil || len(names) != 1 || names[0] != "plain" {
			t.Errorf("readdir = %v, %v", names, err)
		}

		// Pipe with marshalling within a single process (small enough not
		// to block).
		rfd, wfd, err := e.Pipe()
		if err != nil {
			t.Errorf("pipe: %v", err)
		}
		e.WriteMem(buf, []byte("pipedata"))
		e.Write(wfd, buf, 8)
		n, err = e.Read(rfd, out, 8)
		if err != nil || n != 8 {
			t.Errorf("pipe read = %d, %v", n, err)
		}
		pd := make([]byte, 8)
		e.ReadMem(out, pd)
		if string(pd) != "pipedata" {
			t.Errorf("pipe data %q", pd)
		}

		// Heap via Sbrk under the shim's pre-registered heap region.
		hb, err := e.Sbrk(2)
		if err != nil {
			t.Errorf("sbrk: %v", err)
		}
		e.Store64(hb, 7)
		if e.Load64(hb) != 7 {
			t.Error("heap broken")
		}
		e.Exit(0)
	})
	if sys.Stats().Get(sim.CtrShimMarshalBytes) == 0 {
		t.Fatal("no marshalling recorded")
	}
}

func TestShimSignalKillSurface(t *testing.T) {
	sys := newSys(t, 1024)
	delivered := 0
	run(t, sys, func(e core.Env) {
		e.Signal(core.SIGUSR1, func(he core.Env, s core.Signal) {
			if !he.Cloaked() {
				t.Error("handler env not cloaked")
			}
			delivered++
		})
		e.Kill(e.Pid(), core.SIGUSR1)
		e.Exit(0)
	})
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestConcurrentCloakedReaders(t *testing.T) {
	// Two cloaked processes read the same cloaked file simultaneously.
	// Each maps its own window; both verify against the shared vault
	// metadata. Interleaving is forced with yields.
	sys := newSys(t, 2048)
	payload := make([]byte, 2*window+3*core.PageSize)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	results := make(map[string][]byte)
	mkReader := func(name string) core.Program {
		return func(e core.Env) {
			for {
				if _, err := e.Stat("/seeded"); err == nil {
					break
				}
				e.Sleep(30_000)
			}
			fd, err := e.Open("/secret/shared-read", core.ORdOnly)
			if err != nil {
				t.Errorf("%s open: %v", name, err)
				e.Exit(1)
			}
			buf, _ := e.Alloc(4)
			var got []byte
			for {
				n, err := e.Read(fd, buf, 1000) // odd size: crosses pages
				if err != nil {
					t.Errorf("%s read: %v", name, err)
					e.Exit(1)
				}
				if n == 0 {
					break
				}
				chunk := make([]byte, n)
				e.ReadMem(buf, chunk)
				got = append(got, chunk...)
				e.Yield() // interleave with the other reader
			}
			results[name] = got
			e.Close(fd)
			e.Exit(0)
		}
	}
	sys.Register("seeder", func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		fd, _ := e.Open("/secret/shared-read", core.OCreate|core.OWrOnly)
		for off := 0; off < len(payload); off += core.PageSize {
			e.WriteMem(buf, payload[off:off+core.PageSize])
			e.Write(fd, buf, core.PageSize)
		}
		e.Close(fd)
		done, _ := e.Open("/seeded", core.OCreate|core.OWrOnly)
		e.Close(done)
		e.Exit(0)
	})
	sys.Register("r1", mkReader("r1"))
	sys.Register("r2", mkReader("r2"))
	sys.Spawn("seeder", core.Cloaked())
	sys.Spawn("r1", core.Cloaked())
	sys.Spawn("r2", core.Cloaked())
	sys.Run()
	for name, got := range results {
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s read %d bytes, corrupted or short", name, len(got))
		}
	}
	if len(results) != 2 {
		t.Fatalf("only %d readers finished", len(results))
	}
}

func TestCloakedFileSurvivesMemoryPressure(t *testing.T) {
	// A cloaked file twice the size of its window and of RAM, which is no
	// larger than the window: window pages get paged out mid-stream, and
	// contents must survive.
	sys := newSys(t, 64)
	const filePages = 128
	okRun := false
	run(t, sys, func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(2)
		chunk := make([]byte, core.PageSize)
		fd, _ := e.Open("/secret/big", core.OCreate|core.ORdWr)
		for p := 0; p < filePages; p++ {
			for i := range chunk {
				chunk[i] = byte(p ^ i)
			}
			e.WriteMem(buf, chunk)
			if _, err := e.Write(fd, buf, len(chunk)); err != nil {
				t.Errorf("write p%d: %v", p, err)
				e.Exit(1)
			}
		}
		e.Lseek(fd, 0, core.SeekSet)
		for p := 0; p < filePages; p++ {
			n, err := e.Read(fd, buf, core.PageSize)
			if err != nil || n != core.PageSize {
				t.Errorf("read p%d = %d,%v", p, n, err)
				e.Exit(1)
			}
			e.ReadMem(buf, chunk)
			for i := 0; i < 64; i++ {
				if chunk[i] != byte(p^i) {
					t.Errorf("p%d byte %d corrupted", p, i)
					e.Exit(1)
				}
			}
		}
		e.Close(fd)
		okRun = true
		e.Exit(0)
	})
	if !okRun {
		t.Fatal("workload failed")
	}
	if sys.Stats().Get(sim.CtrPageOut) == 0 {
		t.Fatal("no paging happened; test ineffective")
	}
}
