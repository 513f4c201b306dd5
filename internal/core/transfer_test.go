package core

import (
	"errors"
	"fmt"
	"testing"

	"overshadow/internal/guestos"
)

// transferOutcome is what one read, write, pread or pwrite leaves behind:
// the count and errno it returned, the four buffer bytes after it, and the
// file's bytes read back afterwards.
type transferOutcome struct {
	n     int
	errno guestos.Errno
	buf   string
	file  string
}

// errnoOf returns the errno an Env call failed with (OK for nil).
func errnoOf(err error) guestos.Errno {
	var e guestos.Errno
	if err == nil || !errors.As(err, &e) {
		return guestos.OK
	}
	return e
}

// TestTransferAccessModeTransparent is the access-mode slice of functional
// transparency: read, write, pread and pwrite of 4 bytes, on a descriptor
// opened O_RDONLY, O_WRONLY or O_RDWR, give the same count, errno, buffer
// and file bytes in a native and a cloaked process, on a plain file (which a
// cloaked process reaches through the kernel) and on a /secret/ file (which
// it reaches through the shim's window). Every cell must give the outcome
// POSIX gives the native plain-file cell: a read on O_WRONLY and a write on
// O_RDONLY are EBADF and change nothing. pread and pwrite on a pipe are
// ESPIPE and leave the pipe's bytes as they were.
func TestTransferAccessModeTransparent(t *testing.T) {
	const original = "original-contents"
	calls := []struct {
		name  string
		write bool
		do    func(e Env, fd int, buf Addr) (int, error)
		want  transferOutcome // when the mode allows the call
	}{
		{"read", false, func(e Env, fd int, buf Addr) (int, error) { return e.Read(fd, buf, 4) },
			transferOutcome{4, guestos.OK, "orig", original}},
		{"write", true, func(e Env, fd int, buf Addr) (int, error) { return e.Write(fd, buf, 4) },
			transferOutcome{4, guestos.OK, "XXXX", "XXXXinal-contents"}},
		{"pread", false, func(e Env, fd int, buf Addr) (int, error) { return e.Pread(fd, buf, 4, 4) },
			transferOutcome{4, guestos.OK, "inal", original}},
		{"pwrite", true, func(e Env, fd int, buf Addr) (int, error) { return e.Pwrite(fd, buf, 4, 4) },
			transferOutcome{4, guestos.OK, "XXXX", "origXXXX-contents"}},
	}
	modes := []struct {
		name  string
		flags int
	}{{"O_RDONLY", ORdOnly}, {"O_WRONLY", OWrOnly}, {"O_RDWR", ORdWr}}

	// cell runs body as one native or cloaked process on a fresh machine.
	cell := func(t *testing.T, cloaked bool, body Program) {
		t.Helper()
		sys := NewSystem(Config{MemoryPages: 256})
		sys.Register("cell", body)
		var opts []SpawnOpt
		if cloaked {
			opts = append(opts, Cloaked())
		}
		if _, err := sys.Spawn("cell", opts...); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	// fileCell writes the original contents to path, reopens it with flags,
	// makes the call from a buffer holding "XXXX", then reads the file back.
	fileCell := func(t *testing.T, cloaked bool, path string, flags int, do func(Env, int, Addr) (int, error)) transferOutcome {
		var out transferOutcome
		cell(t, cloaked, func(e Env) {
			fail := func(what string, err error) {
				t.Errorf("%s: %v", what, err)
				e.Exit(1)
			}
			if err := e.Mkdir("/secret"); err != nil {
				fail("mkdir", err)
			}
			buf, err := e.Alloc(1)
			if err != nil {
				fail("alloc", err)
			}
			e.WriteMem(buf, []byte(original))
			fd, err := e.Open(path, OCreate|OWrOnly|OTrunc)
			if err != nil {
				fail("create", err)
			}
			if n, err := e.Write(fd, buf, len(original)); n != len(original) || err != nil {
				fail(fmt.Sprintf("seed write %d", n), err)
			}
			if err := e.Close(fd); err != nil {
				fail("close", err)
			}
			e.WriteMem(buf, []byte("XXXX"))
			if fd, err = e.Open(path, flags); err != nil {
				fail("open", err)
			}
			n, err := do(e, fd, buf)
			out.n, out.errno = n, errnoOf(err)
			got := make([]byte, 4)
			e.ReadMem(buf, got)
			out.buf = string(got)
			if err := e.Close(fd); err != nil {
				fail("close", err)
			}
			if fd, err = e.Open(path, ORdOnly); err != nil {
				fail("reopen", err)
			}
			n, err = e.Read(fd, buf, 64)
			if err != nil {
				fail("read back", err)
			}
			file := make([]byte, n)
			e.ReadMem(buf, file)
			out.file = string(file)
			e.Exit(0)
		})
		return out
	}

	for _, c := range calls {
		for _, m := range modes {
			// POSIX: O_WRONLY forbids reads, O_RDONLY forbids writes.
			want := c.want
			if c.write && m.flags == ORdOnly || !c.write && m.flags == OWrOnly {
				want = transferOutcome{0, guestos.EBADF, "XXXX", original}
			}
			for _, cloaked := range []bool{false, true} {
				for _, path := range []string{"/plain", "/secret/f"} {
					name := fmt.Sprintf("cloaked=%v%s/%s/%s", cloaked, path, c.name, m.name)
					t.Run(name, func(t *testing.T) {
						if got := fileCell(t, cloaked, path, m.flags, c.do); got != want {
							t.Fatalf("%+v, want %+v (the native plain-file outcome)", got, want)
						}
					})
				}
			}
		}
	}

	for _, cloaked := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipe/cloaked=%v", cloaked), func(t *testing.T) {
			var pread, pwrite transferOutcome
			var left string
			cell(t, cloaked, func(e Env) {
				buf, _ := e.Alloc(1)
				r, w, err := e.Pipe()
				if err != nil {
					t.Errorf("pipe: %v", err)
					e.Exit(1)
				}
				e.WriteMem(buf, []byte("pipe"))
				if n, err := e.Write(w, buf, 4); n != 4 || err != nil {
					t.Errorf("write = %d, %v", n, err)
					e.Exit(1)
				}
				n, err := e.Pread(r, buf, 4, 0)
				pread = transferOutcome{n: n, errno: errnoOf(err)}
				n, err = e.Pwrite(w, buf, 4, 0)
				pwrite = transferOutcome{n: n, errno: errnoOf(err)}
				// The pipe still holds exactly its 4 bytes.
				n, _ = e.Read(r, buf, 8)
				got := make([]byte, n)
				e.ReadMem(buf, got)
				left = string(got)
				e.Exit(0)
			})
			want := transferOutcome{errno: guestos.ESPIPE}
			if pread != want || pwrite != want {
				t.Fatalf("pread %+v, pwrite %+v; want %+v each", pread, pwrite, want)
			}
			if left != "pipe" {
				t.Fatalf("pipe left holding %q, want %q", left, "pipe")
			}
		})
	}
}
