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
