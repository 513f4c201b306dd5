package core

import (
	"errors"
	"runtime"
	"testing"

	"overshadow/internal/guestos"
	"overshadow/internal/vmm"
)

// TestGuestIOAllocatesWhatItMoves drives the four length-taking I/O calls
// (and a pipe read), native and cloaked, under an honest kernel and under
// one whose syscall hook rewrites every length register to 64 MiB. The host
// bytes a call allocates must stay within the bytes it moves plus one page:
// a length register alone sizes no host allocation. The file holds 8 bytes
// and the program's buffer is one page, so a wild read delivers 8 bytes and
// a wild write reads the mapped buffer, then faults.
func TestGuestIOAllocatesWhatItMoves(t *testing.T) {
	const (
		wild    = 64 << 20
		data    = "01234567"
		scratch = guestos.LayoutScratchLen * PageSize
	)
	type ioCall struct {
		name  string
		write bool
		do    func(e Env, fd int, buf Addr, n int) (int, error)
	}
	calls := []ioCall{
		{"read", false, func(e Env, fd int, buf Addr, n int) (int, error) { return e.Read(fd, buf, n) }},
		{"pread", false, func(e Env, fd int, buf Addr, n int) (int, error) { return e.Pread(fd, buf, n, 0) }},
		{"pipe read", false, func(e Env, fd int, buf Addr, n int) (int, error) { return e.Read(fd, buf, n) }},
		{"write", true, func(e Env, fd int, buf Addr, n int) (int, error) { return e.Write(fd, buf, n) }},
		{"pwrite", true, func(e Env, fd int, buf Addr, n int) (int, error) { return e.Pwrite(fd, buf, n, 0) }},
	}
	for _, cloaked := range []bool{false, true} {
		for _, hostile := range []bool{false, true} {
			sys := NewSystem(Config{MemoryPages: 512})
			if err := sys.WriteGuestFile("/eight", []byte(data)); err != nil {
				t.Fatal(err)
			}
			armed := false
			if hostile {
				sys.Adversary().OnSyscall = func(_ *guestos.Kernel, _ *guestos.Proc, no guestos.Sysno, kregs *vmm.Regs) {
					switch no {
					case guestos.SysRead, guestos.SysWrite, guestos.SysPread, guestos.SysPwrite:
						if armed {
							kregs.GPR[3] = wild
						}
					}
				}
			}
			sys.Register("io", func(e Env) {
				buf, err := e.Alloc(1)
				if err != nil {
					t.Errorf("alloc: %v", err)
					e.Exit(1)
				}
				e.WriteMem(buf, []byte(data))
				for _, c := range calls {
					// The program itself passes the wild length, except where
					// a hostile kernel supplies it, or where a cloaked
					// program's shim would first copy that many bytes of its
					// own memory.
					n := wild
					if hostile || cloaked && c.write {
						n = len(data)
					}
					// run opens a fresh descriptor and makes the call once,
					// counting the host bytes the call alone allocates.
					run := func() (got int, err error, alloc uint64) {
						var fd int
						switch {
						case c.name == "pipe read":
							r, w, perr := e.Pipe()
							if perr != nil {
								return 0, perr, 0
							}
							if _, werr := e.Write(w, buf, len(data)); werr != nil {
								return 0, werr, 0
							}
							defer func() { _ = e.Close(w) }()
							fd = r
						case c.write:
							fd, err = e.Open("/out", OCreate|ORdWr)
						default:
							fd, err = e.Open("/eight", ORdOnly)
						}
						if err != nil {
							return 0, err, 0
						}
						defer func() { _ = e.Close(fd) }()
						var ms runtime.MemStats
						runtime.ReadMemStats(&ms)
						before := ms.TotalAlloc
						armed = true
						got, err = c.do(e, fd, buf, n)
						armed = false
						runtime.ReadMemStats(&ms)
						return got, err, ms.TotalAlloc - before
					}
					// The first call also pays the simulator's first-touch
					// allocations (frame backings, disk blocks), which no
					// length register sizes; the second is measured.
					run()
					got, err, alloc := run()

					// moved counts the bytes copied between user memory and
					// the kernel's buffer, plus the shim's bounce through its
					// scratch region when cloaked.
					var moved uint64
					switch {
					case !c.write:
						if got != len(data) || err != nil {
							t.Errorf("%s: got %d, %v; want the file's %d bytes", c.name, got, err, len(data))
						}
						moved = uint64(len(data))
						if cloaked {
							moved *= 2
						}
					case cloaked && !hostile:
						if got != len(data) || err != nil {
							t.Errorf("%s: got %d, %v; want %d bytes written", c.name, got, err, len(data))
						}
						moved = 2 * uint64(len(data))
					default:
						// The kernel reads every mapped byte from the buffer's
						// start (the program's page, or the shim's scratch
						// region), then faults at the first unmapped page.
						if got != 0 || !errors.Is(err, guestos.EFAULT) {
							t.Errorf("%s: got %d, %v; want EFAULT", c.name, got, err)
						}
						moved = PageSize
						if cloaked {
							moved = uint64(len(data)) + scratch
						}
					}
					if alloc > moved+PageSize {
						t.Errorf("%s (cloaked %v, hostile %v): %d host bytes for %d bytes moved",
							c.name, cloaked, hostile, alloc, moved)
					}
				}
				e.Exit(0)
			})
			var opts []SpawnOpt
			if cloaked {
				opts = append(opts, Cloaked())
			}
			if _, err := sys.Spawn("io", opts...); err != nil {
				t.Fatal(err)
			}
			sys.Run()
		}
	}
}

// TestGuestIOSteadyState pins the syscall path's host allocations once it is
// warm, native and cloaked, after one 64 KiB file transfer: a pipe round
// trip of at most a page and a /secret/ file write and read of at most a
// page allocate nothing, because each task keeps one page of kernel I/O
// buffer and each shim context one page of bounce buffer. A pipe round trip
// one byte over a page allocates again, so the task kept no more than a
// page of the 64 KiB; cloaked, it allocates at least two more times than
// native (the shim's two bounces), so the context kept no more either.
func TestGuestIOSteadyState(t *testing.T) {
	const big = 64 << 10
	over := map[bool]float64{} // allocations of a round trip one byte over a page
	for _, cloaked := range []bool{false, true} {
		sys := NewSystem(Config{MemoryPages: 512})
		sys.Register("io", func(e Env) {
			buf, err := e.Alloc(big / PageSize)
			if err != nil {
				t.Errorf("alloc: %v", err)
				e.Exit(1)
			}
			if err := e.Mkdir("/secret"); err != nil {
				t.Errorf("mkdir: %v", err)
				e.Exit(1)
			}
			fd, err := e.Open("/secret/io", OCreate|ORdWr)
			if err != nil {
				t.Errorf("open: %v", err)
				e.Exit(1)
			}
			for _, path := range []string{"/plain", "/secret/big"} {
				big1, err := e.Open(path, OCreate|ORdWr)
				if err != nil {
					t.Errorf("open %s: %v", path, err)
					e.Exit(1)
				}
				if n, err := e.Pwrite(big1, buf, big, 0); n != big || err != nil {
					t.Errorf("%s: 64 KiB pwrite: %d, %v", path, n, err)
				}
				if n, err := e.Pread(big1, buf, big, 0); n != big || err != nil {
					t.Errorf("%s: 64 KiB pread: %d, %v", path, n, err)
				}
				if err := e.Close(big1); err != nil {
					t.Error(err)
				}
			}
			r, w, err := e.Pipe()
			if err != nil {
				t.Errorf("pipe: %v", err)
				e.Exit(1)
			}
			pipeTrip := func(n int) func() {
				return func() {
					if got, err := e.Write(w, buf, n); got != n || err != nil {
						t.Errorf("pipe write of %d: %d, %v", n, got, err)
					}
					if got, err := e.Read(r, buf, n); got != n || err != nil {
						t.Errorf("pipe read of %d: %d, %v", n, got, err)
					}
				}
			}
			fileTrip := func(n int) func() {
				return func() {
					if got, err := e.Pwrite(fd, buf, n, 0); got != n || err != nil {
						t.Errorf("file write of %d: %d, %v", n, got, err)
					}
					if got, err := e.Pread(fd, buf, n, 0); got != n || err != nil {
						t.Errorf("file read of %d: %d, %v", n, got, err)
					}
				}
			}
			for _, n := range []int{1, 100, PageSize} {
				if a := testing.AllocsPerRun(20, pipeTrip(n)); a != 0 {
					t.Errorf("cloaked %v: a %d-byte pipe round trip allocates %v times", cloaked, n, a)
				}
				if a := testing.AllocsPerRun(20, fileTrip(n)); a != 0 {
					t.Errorf("cloaked %v: a %d-byte /secret/ file round trip allocates %v times", cloaked, n, a)
				}
			}
			over[cloaked] = testing.AllocsPerRun(20, pipeTrip(PageSize+1))
			e.Exit(0)
		})
		var opts []SpawnOpt
		if cloaked {
			opts = append(opts, Cloaked())
		}
		if _, err := sys.Spawn("io", opts...); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	t.Logf("one byte over a page, a pipe round trip allocates %v times native and %v cloaked", over[false], over[true])
	if over[false] == 0 {
		t.Error("a pipe round trip one byte over a page allocates nothing: the task kept more than a page")
	}
	if over[true] < over[false]+2 {
		t.Errorf("one byte over a page, a cloaked pipe round trip allocates %v times and a native one %v: the shim context kept more than a page",
			over[true], over[false])
	}
}
