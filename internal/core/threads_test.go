package core

import (
	"bytes"
	"fmt"
	"testing"

	"overshadow/internal/guestos"
	"overshadow/internal/vmm"
)

// The multithreading claims of the paper: multi-shadowing and CTCs are
// per-thread, so several threads of one cloaked process share plaintext
// views of the same protected memory while the kernel still sees ciphertext
// and scrubbed registers for every one of them.

func TestCloakedThreadsShareProtectedMemory(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	secret := []byte("shared among threads, hidden from the OS")
	var threadSaw []byte
	sys.Register("app", func(e Env) {
		if !e.Cloaked() {
			t.Error("not cloaked")
		}
		base, _ := e.Alloc(1)
		e.WriteMem(base, secret)
		tid, err := e.SpawnThread(func(te Env) {
			if !te.Cloaked() {
				t.Error("thread env not cloaked")
			}
			got := make([]byte, len(secret))
			te.ReadMem(base, got) // must decrypt transparently
			threadSaw = got
			te.Null() // thread trap: its own CTC protects its registers
		})
		if err != nil {
			t.Errorf("spawn: %v", err)
			e.Exit(1)
		}
		e.JoinThread(tid)
		e.Exit(0)
	})
	if _, err := sys.Spawn("app", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !bytes.Equal(threadSaw, secret) {
		t.Fatalf("thread saw %q", threadSaw)
	}
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIntegrityViolation || ev.Kind == vmm.EventCTCTamper {
			t.Fatalf("violation under benign kernel: %v", ev)
		}
	}
}

func TestCloakedThreadRegistersScrubbedIndependently(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	var scrubFailures int
	var traps int
	sys.Adversary().OnSyscall = func(_ *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, kregs *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		traps++
		if kregs.PC != 0 || kregs.SP != 0 {
			scrubFailures++
		}
	}
	sys.Register("app", func(e Env) {
		var tids []Pid
		for i := 0; i < 3; i++ {
			tid, _ := e.SpawnThread(func(te Env) {
				for j := 0; j < 5; j++ {
					te.Null()
					te.Yield()
				}
			})
			tids = append(tids, tid)
		}
		for _, tid := range tids {
			e.JoinThread(tid)
		}
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if traps < 15 {
		t.Fatalf("only %d traps observed", traps)
	}
	if scrubFailures != 0 {
		t.Fatalf("%d traps exposed registers", scrubFailures)
	}
}

func TestCloakedThreadsKernelSnoopStillCiphertext(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	secret := []byte("thread working set stays cloaked")
	var leaks int
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		buf := make([]byte, len(secret))
		va := Addr(guestos.LayoutHeapBase * PageSize)
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, va, buf, false); err == nil {
			if bytes.Contains(buf, secret[:8]) {
				leaks++
			}
		}
	}
	sys.Register("app", func(e Env) {
		base, _ := e.Sbrk(1)
		e.WriteMem(base, secret)
		tid, _ := e.SpawnThread(func(te Env) {
			for i := 0; i < 8; i++ {
				te.Null() // traps from the *thread* trigger snooping too
				got := make([]byte, len(secret))
				te.ReadMem(base, got)
				if !bytes.Equal(got, secret) {
					t.Error("thread lost plaintext access")
					return
				}
			}
		})
		e.JoinThread(tid)
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if leaks != 0 {
		t.Fatalf("%d plaintext leaks via thread traps", leaks)
	}
}

func TestCloakedWorkerPoolPipeline(t *testing.T) {
	// A realistic multithreaded cloaked app: workers consume jobs from a
	// shared cloaked ring and accumulate into a shared result cell.
	sys := NewSystem(Config{MemoryPages: 1024})
	const jobs = 24
	var final uint64
	sys.Register("pool", func(e Env) {
		ring, _ := e.Alloc(1) // jobs
		resCell, _ := e.Alloc(1)
		for i := 0; i < jobs; i++ {
			e.Store64(ring+Addr(i*8), uint64(i+1))
		}
		next, _ := e.Alloc(1) // shared cursor at offset 0
		var tids []Pid
		for w := 0; w < 3; w++ {
			tid, _ := e.SpawnThread(func(te Env) {
				for {
					idx := te.Load64(next)
					if idx >= jobs {
						return
					}
					te.Store64(next, idx+1) // single CPU: no race
					v := te.Load64(ring + Addr(idx*8))
					te.Compute(v * 100)
					te.Store64(resCell, te.Load64(resCell)+v*v)
					te.Yield()
				}
			})
			tids = append(tids, tid)
		}
		for _, tid := range tids {
			e.JoinThread(tid)
		}
		final = e.Load64(resCell)
		e.Exit(0)
	})
	sys.Spawn("pool", Cloaked())
	sys.Run()
	var want uint64
	for i := uint64(1); i <= jobs; i++ {
		want += i * i
	}
	if final != want {
		t.Fatalf("pool result = %d, want %d", final, want)
	}
}

// TestCloakedThreadsMarshalIndependently runs two threads of one cloaked
// process that each push their own payloads through their own pipe and
// read them back, at sizes below, at and above a page. The scheduler
// preempts a thread at syscall exits, so a sibling runs between one
// thread's kernel read into its scratch window and the bounce out of it.
// Each thread marshals through a scratch window and a bounce buffer of its
// own, so every byte read back must be the thread's own. The test also
// checks that the threads did interleave inside round trips.
func TestCloakedThreadsMarshalIndependently(t *testing.T) {
	for _, vcpus := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcpus%d", vcpus), func(t *testing.T) {
			sys := NewSystem(Config{MemoryPages: 1024, VCPUs: vcpus})
			const rounds = 400
			sizes := []int{3000, PageSize, 2*PageSize + 100}
			var done [2]int // round trips finished, per thread
			interleaved, bad := 0, 0
			sys.Register("app", func(e Env) {
				var tids []Pid
				for w := 0; w < 2; w++ {
					tid, err := e.SpawnThread(func(te Env) {
						r, wr, err := te.Pipe()
						if err != nil {
							t.Errorf("thread %d: pipe: %v", w, err)
							return
						}
						src, _ := te.Alloc(3)
						dst, _ := te.Alloc(3)
						for i := 0; i < rounds; i++ {
							n := sizes[i%len(sizes)]
							want := make([]byte, n)
							for j := range want {
								want[j] = byte(w*128 + (i+j)%127)
							}
							te.WriteMem(src, want)
							sibling := done[1-w]
							if got, err := te.Write(wr, src, n); got != n || err != nil {
								t.Errorf("thread %d round %d: write %d, %v", w, i, got, err)
								return
							}
							for got := 0; got < n; {
								k, err := te.Read(r, dst+Addr(got), n-got)
								if k == 0 || err != nil {
									t.Errorf("thread %d round %d: read %d, %v", w, i, k, err)
									return
								}
								got += k
							}
							if done[1-w] != sibling {
								interleaved++
							}
							back := make([]byte, n)
							te.ReadMem(dst, back)
							if !bytes.Equal(back, want) {
								bad++
							}
							done[w]++
						}
					})
					if err != nil {
						t.Errorf("spawn: %v", err)
						e.Exit(1)
					}
					tids = append(tids, tid)
				}
				for _, tid := range tids {
					e.JoinThread(tid)
				}
				e.Exit(0)
			})
			if _, err := sys.Spawn("app", Cloaked()); err != nil {
				t.Fatal(err)
			}
			sys.Run()
			t.Logf("%d of %d round trips interleaved, %d corrupted", interleaved, 2*rounds, bad)
			if done != [2]int{rounds, rounds} {
				t.Fatalf("round trips finished: %v, want %d each", done, rounds)
			}
			if interleaved == 0 {
				t.Fatal("no sibling ran inside a round trip; the test exercises nothing")
			}
			if bad != 0 {
				t.Fatalf("%d of %d round trips read back a sibling's bytes", bad, 2*rounds)
			}
		})
	}
}
