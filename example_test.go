package overshadow_test

// The Examples are the runnable tour of the system. Each boots a simulated
// machine through internal/core, runs an unmodified program cloaked (some
// also natively), and prints what the application and the guest kernel
// each saw. Every // Output: block pins that text, so `go test ./...` runs
// the tour and any change in what leaks, what is detected or what it costs
// shows up as a diff. `go test -run Example -v .` runs all seven.

import (
	"bytes"
	"fmt"

	"overshadow/internal/core"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
	"overshadow/internal/workload"
)

// heapVA is the first heap page of every guest process: where the hostile
// kernels below look for their victims' secrets.
const heapVA = core.Addr(guestos.LayoutHeapBase * core.PageSize)

// spawn queues the registered program name, cloaked or native: the
// examples that run one program both ways share it.
func spawn(sys *core.System, name string, cloaked bool) {
	var opts []core.SpawnOpt
	if cloaked {
		opts = append(opts, core.Cloaked())
	}
	if _, err := sys.Spawn(name, opts...); err != nil {
		panic(err)
	}
}

// Example_quickstart boots the machine, runs one cloaked application, and
// shows that the guest kernel sees only ciphertext while the application
// computes on plaintext.
func Example_quickstart() {
	sys := core.NewSystem(core.Config{MemoryPages: 1024})

	secret := []byte("my diary: today I learned about multi-shadowing")
	var kernelView []byte

	// Peek at the application's heap from the kernel's (system) view on
	// every syscall — this is what any kernel code path would see.
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		buf := make([]byte, len(secret))
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, heapVA, buf, false); err == nil {
			kernelView = buf
		}
	}

	sys.Register("diary", func(e core.Env) {
		heap, _ := e.Sbrk(1) // one page of protected heap
		e.WriteMem(heap, secret)
		e.Null() // enter the kernel once so it gets its chance to look

		got := make([]byte, len(secret))
		e.ReadMem(heap, got)
		fmt.Printf("app sees:    %q\n", got)
		e.Exit(0)
	})

	if _, err := sys.Spawn("diary", core.Cloaked()); err != nil {
		panic(err)
	}
	sys.Run()

	fmt.Printf("kernel sees: %x…\n", kernelView[:24])
	if bytes.Contains(kernelView, secret[:8]) {
		fmt.Println("FAILURE: the kernel observed plaintext")
	} else {
		fmt.Println("OK: the kernel observed only ciphertext")
	}
	fmt.Printf("simulated time: %v; encryptions: %d, decryptions: %d\n",
		sys.Now(),
		sys.Stats().Get(sim.CtrPageEncrypt),
		sys.Stats().Get(sim.CtrPageDecrypt))
	// Output:
	// app sees:    "my diary: today I learned about multi-shadowing"
	// kernel sees: b56b91947480b5c9076caf416181810cd50038cf7b1f45c0…
	// OK: the kernel observed only ciphertext
	// simulated time: 261.9 Kcyc; encryptions: 2, decryptions: 1
}

// Example_webServer runs the paper's motivating macro-workload: a
// request-serving loop (client and server processes joined by pipes,
// content from the guest filesystem) runs once natively and once cloaked,
// and the example prints throughput in simulated cycles and the overhead
// cloaking costs.
func Example_webServer() {
	cfg := workload.WebConfig{
		Requests:     200,
		PayloadBytes: 8 * 1024,
		NumDocs:      8,
		ParseCompute: 2000,
	}

	run := func(cloaked bool) sim.Cycles {
		sys := core.NewSystem(core.Config{MemoryPages: 4096})
		sys.Register("web", workload.WebServerProgram(cfg))
		spawn(sys, "web", cloaked)
		sys.Run()
		return sys.Now()
	}

	native := run(false)
	cloaked := run(true)

	reqPerMcyc := func(c sim.Cycles) float64 {
		return float64(cfg.Requests) / (float64(c) / 1e6)
	}
	fmt.Printf("requests: %d, payload: %d KiB\n", cfg.Requests, cfg.PayloadBytes/1024)
	fmt.Printf("native:  %v  (%.2f req/Mcyc)\n", native, reqPerMcyc(native))
	fmt.Printf("cloaked: %v  (%.2f req/Mcyc)\n", cloaked, reqPerMcyc(cloaked))
	fmt.Printf("cloaking overhead: %.1f%%\n",
		(float64(cloaked)/float64(native)-1)*100)
	fmt.Println("\nwhere the cloaked cycles go: every request's pipe read/write and")
	fmt.Println("file read is marshalled through the shim's uncloaked scratch buffer,")
	fmt.Println("and every trap pays secure control transfer.")
	// Output:
	// requests: 200, payload: 8 KiB
	// native:  20.22 Mcyc  (9.89 req/Mcyc)
	// cloaked: 27.75 Mcyc  (7.21 req/Mcyc)
	// cloaking overhead: 37.2%
	//
	// where the cloaked cycles go: every request's pipe read/write and
	// file read is marshalled through the shim's uncloaked scratch buffer,
	// and every trap pays secure control transfer.
}

// patientRecord is the secret every maliciousOS victim keeps on its heap.
var patientRecord = []byte("patient record #4421: diagnosis confidential")

// Example_maliciousOS turns the OS hostile. It mounts the full attack
// repertoire of a compromised kernel against one cloaked victim — syscall
// snooping, register harvesting, memory tampering, and swap games — and
// reports, attack by attack, what leaked (nothing), what was silently
// corrupted (nothing), and what the VMM detected. Then it repeats the snoop
// and the tamper against a native victim, where the plaintext leaks and the
// forged bytes are consumed unnoticed.
func Example_maliciousOS() {
	fmt.Println("=== attack 1: snoop application memory at every syscall ===")
	snoopAttack(true)
	fmt.Println("\n=== attack 2: harvest registers at every trap ===")
	registerAttack()
	fmt.Println("\n=== attack 3: tamper with application memory ===")
	tamperAttack(true)
	fmt.Println("\n=== attack 4: corrupt pages in swap ===")
	swapAttack()
	fmt.Println("\n=== attacks 1 and 3 against a native victim ===")
	snoopAttack(false)
	tamperAttack(false)
	// Output:
	// === attack 1: snoop application memory at every syscall ===
	// kernel read the victim's heap 9 times, plaintext leaks: 0
	// sample of what it got: 7b40c303053fb4ada832c722e28f5580…
	//
	// === attack 2: harvest registers at every trap ===
	// kernel saw 11 traps; PC/SP were non-scrubbed in 0 of them
	//
	// === attack 3: tamper with application memory ===
	// kernel overwrote the victim's page: true
	// victim consumed forged data: false
	// VMM detected: [140994] integrity-violation dom=1 page=d1/r1/p0 gppn=1 cloak: integrity verification failed for page d1/r1/p0
	//
	// === attack 4: corrupt pages in swap ===
	// kernel flipped bits in 1 swapped-in page(s)
	// victim finished with corrupted data: false
	// verification failures recorded: 1
	//
	// === attacks 1 and 3 against a native victim ===
	// kernel read the victim's heap 9 times, plaintext leaks: 9
	// sample of what it got: 70617469656e74207265636f72642023…
	// kernel overwrote the victim's page: true
	// victim consumed forged data: true
	// VMM detected: nothing
}

// snoopAttack reads the victim's heap through the kernel's (system) view at
// every syscall the victim makes.
func snoopAttack(cloaked bool) {
	sys := core.NewSystem(core.Config{MemoryPages: 1024})
	var seen [][]byte
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		buf := make([]byte, len(patientRecord))
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, heapVA, buf, false); err == nil {
			seen = append(seen, buf)
		}
	}
	sys.Register("victim", func(e core.Env) {
		base, _ := e.Sbrk(1)
		e.WriteMem(base, patientRecord)
		for i := 0; i < 8; i++ {
			e.Null()
		}
		e.Exit(0)
	})
	spawn(sys, "victim", cloaked)
	sys.Run()
	leaks := 0
	for _, s := range seen {
		if bytes.Contains(s, patientRecord[:8]) {
			leaks++
		}
	}
	fmt.Printf("kernel read the victim's heap %d times, plaintext leaks: %d\n", len(seen), leaks)
	fmt.Printf("sample of what it got: %x…\n", seen[len(seen)-1][:16])
}

// registerAttack inspects the register file the kernel receives at every
// trap from a cloaked victim.
func registerAttack() {
	sys := core.NewSystem(core.Config{MemoryPages: 1024})
	var nonzero int
	var traps int
	sys.Adversary().OnSyscall = func(_ *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, kregs *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		traps++
		if kregs.PC != 0 || kregs.SP != 0 {
			nonzero++
		}
	}
	sys.Register("victim", func(e core.Env) {
		for i := 0; i < 10; i++ {
			e.Compute(1000)
			e.Null()
		}
		e.Exit(0)
	})
	sys.Spawn("victim", core.Cloaked())
	sys.Run()
	fmt.Printf("kernel saw %d traps; PC/SP were non-scrubbed in %d of them\n", traps, nonzero)
}

// tamperAttack overwrites the victim's heap through the kernel's (system)
// view at the first syscall where the write lands, then lets the victim
// read it back.
func tamperAttack(cloaked bool) {
	sys := core.NewSystem(core.Config{MemoryPages: 1024})
	done := false
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if done {
			return
		}
		if err := k.VMM().WriteVirt(p.AddressSpace(), vmm.ViewSystem, heapVA, []byte("pwnd"), false); err == nil {
			done = true
		}
	}
	survived := false
	sys.Register("victim", func(e core.Env) {
		base, _ := e.Sbrk(1)
		e.WriteMem(base, patientRecord)
		e.Null() // tamper happens here
		buf := make([]byte, len(patientRecord))
		e.ReadMem(base, buf) // the VMM kills a cloaked victim before it sees forged data
		survived = true
		e.Exit(0)
	})
	spawn(sys, "victim", cloaked)
	sys.Run()
	fmt.Printf("kernel overwrote the victim's page: %v\n", done)
	fmt.Printf("victim consumed forged data: %v\n", survived)
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIntegrityViolation {
			fmt.Printf("VMM detected: %v\n", ev)
			return
		}
	}
	fmt.Println("VMM detected: nothing")
}

// swapAttack flips a byte of a cloaked victim's page as the kernel swaps it
// back in.
func swapAttack() {
	sys := core.NewSystem(core.Config{MemoryPages: 128})
	flips := 0
	sys.Adversary().OnPageIn = func(_ *guestos.Kernel, p *guestos.Proc, _ uint64, frame []byte) {
		if p.Cloaked() && flips == 0 {
			frame[0] ^= 0xFF
			flips++
		}
	}
	finished := false
	sys.Register("victim", func(e core.Env) {
		const pages = 200 // exceeds RAM: forces swap
		base, _ := e.Alloc(pages)
		for i := 0; i < pages; i++ {
			e.Store64(base+core.Addr(i*core.PageSize), uint64(i))
		}
		for i := 0; i < pages; i++ {
			_ = e.Load64(base + core.Addr(i*core.PageSize))
		}
		finished = true
		e.Exit(0)
	})
	sys.Spawn("victim", core.Cloaked())
	sys.Run()
	fmt.Printf("kernel flipped bits in %d swapped-in page(s)\n", flips)
	fmt.Printf("victim finished with corrupted data: %v\n", finished)
	fmt.Printf("verification failures recorded: %d\n",
		sys.Stats().Get(sim.CtrHashVerifyFail))
}

// Example_secureIO shows cloaked file I/O through the shim's transparent
// memory-mapped emulation. A cloaked process writes a record file under
// /secret/; the bytes that reach the guest filesystem (and swap) are
// ciphertext, yet the application — and a second cloaked process — read the
// plaintext back through ordinary read()/write() calls.
func Example_secureIO() {
	sys := core.NewSystem(core.Config{MemoryPages: 2048})

	record := []byte("account=alice balance=95000 pin=0000 // extremely private")

	sys.Register("writer", func(e core.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, record)
		fd, err := e.Open("/secret/accounts.db", core.OCreate|core.ORdWr)
		if err != nil {
			fmt.Println("open failed:", err)
			e.Exit(1)
		}
		if _, err := e.Write(fd, buf, len(record)); err != nil {
			fmt.Println("write failed:", err)
			e.Exit(1)
		}
		e.Close(fd)
		// Signal completion for the auditor/reader.
		done, _ := e.Open("/handoff", core.OCreate|core.OWrOnly)
		e.Close(done)
		e.Exit(0)
	})

	sys.Register("reader", func(e core.Env) {
		for {
			if _, err := e.Stat("/handoff"); err == nil {
				break
			}
			e.Sleep(50_000)
		}
		fd, err := e.Open("/secret/accounts.db", core.ORdOnly)
		if err != nil {
			fmt.Println("reader open failed:", err)
			e.Exit(1)
		}
		out, _ := e.Alloc(1)
		n, err := e.Read(fd, out, 256)
		if err != nil {
			fmt.Println("reader read failed:", err)
			e.Exit(1)
		}
		got := make([]byte, n)
		e.ReadMem(out, got)
		fmt.Printf("second cloaked process read: %q\n", got)
		if !bytes.Equal(got, record) {
			fmt.Println("FAILURE: data mismatch")
		}
		e.Close(fd)
		e.Exit(0)
	})

	sys.Spawn("writer", core.Cloaked())
	sys.Spawn("reader", core.Cloaked())
	sys.Run()

	// Host-side audit: what actually sits in the guest filesystem?
	stored, err := sys.ReadGuestFile("/secret/accounts.db")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nbytes on the guest 'disk': %x…\n", stored[:32])
	if bytes.Contains(stored, record[:12]) {
		fmt.Println("FAILURE: plaintext hit the filesystem")
	} else {
		fmt.Println("OK: the filesystem (and hence the OS, backups, and the")
		fmt.Println("    disk) holds only ciphertext — yet read()/write() were")
		fmt.Println("    ordinary calls; the shim's mmap emulation did the rest.")
	}
	fmt.Printf("\nshim-emulated I/O ops: %d, marshalled bytes: %d\n",
		sys.Stats().Get(sim.CtrShimSyscall),
		sys.Stats().Get(sim.CtrShimMarshalBytes))
	// Output:
	// second cloaked process read: "account=alice balance=95000 pin=0000 // extremely private"
	//
	// bytes on the guest 'disk': a212c1e3caf5cb887cb467e21adf1d10e5361ea7ff9cc9e44284054424dfdfdf…
	// OK: the filesystem (and hence the OS, backups, and the
	//     disk) holds only ciphertext — yet read()/write() were
	//     ordinary calls; the shim's mmap emulation did the rest.
	//
	// shim-emulated I/O ops: 2, marshalled bytes: 0
}

// Example_workerPool runs a multithreaded cloaked application. Overshadow's
// protection is per-thread at the trap level (every thread has its own
// cloaked thread context whose registers are scrubbed independently) and
// per-domain at the memory level (all threads share one plaintext view of
// the protected working set). A hostile kernel watches every trap from
// every thread and still learns nothing.
func Example_workerPool() {
	sys := core.NewSystem(core.Config{MemoryPages: 2048})

	// The hostile kernel: harvest registers and scan the shared heap at
	// every trap from every thread.
	secretBlock := []byte("payroll row: cto, $0 (equity only), ssn 078-05-1120")
	var traps, regLeaks, memLeaks int
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, kregs *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		traps++
		if kregs.PC != 0 || kregs.SP != 0 {
			regLeaks++
		}
		buf := make([]byte, len(secretBlock))
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, heapVA, buf, false); err == nil {
			if bytes.Contains(buf, secretBlock[:12]) {
				memLeaks++
			}
		}
	}

	const rows = 30
	const workers = 4
	var checksum uint64

	sys.Register("payroll", func(e core.Env) {
		// Shared protected state: the table, a work cursor, a result cell.
		table, _ := e.Sbrk(8) // heap: what the adversary scans
		e.WriteMem(table, secretBlock)
		for i := 0; i < rows; i++ {
			e.Store64(table+core.Addr(256+i*8), uint64(i)*1111)
		}
		cursor, _ := e.Alloc(1)
		result, _ := e.Alloc(1)

		var tids []core.Pid
		for w := 0; w < workers; w++ {
			tid, err := e.SpawnThread(func(te core.Env) {
				for {
					i := te.Load64(cursor)
					if i >= rows {
						return
					}
					te.Store64(cursor, i+1)
					salary := te.Load64(table + core.Addr(256+i*8))
					te.Compute(5_000) // "tax calculation"
					te.Null()         // a trap: the kernel pounces
					te.Store64(result, te.Load64(result)+salary*3/2)
					te.Yield()
				}
			})
			if err != nil {
				panic(err)
			}
			tids = append(tids, tid)
		}
		for _, tid := range tids {
			e.JoinThread(tid)
		}
		checksum = e.Load64(result)
		e.Exit(0)
	})

	if _, err := sys.Spawn("payroll", core.Cloaked()); err != nil {
		panic(err)
	}
	sys.Run()

	var want uint64
	for i := 0; i < rows; i++ {
		want += uint64(i) * 1111 * 3 / 2
	}
	fmt.Printf("%d worker threads processed %d rows; checksum %d (want %d)\n",
		workers, rows, checksum, want)
	fmt.Printf("kernel observed %d traps across all threads\n", traps)
	fmt.Printf("  register leaks: %d\n", regLeaks)
	fmt.Printf("  heap plaintext leaks: %d\n", memLeaks)
	if checksum == want && regLeaks == 0 && memLeaks == 0 {
		fmt.Println("OK: shared plaintext for the threads, ciphertext for the OS")
	} else {
		fmt.Println("FAILURE")
	}
	// Output:
	// 4 worker threads processed 30 rows; checksum 724920 (want 724920)
	// kernel observed 72 traps across all threads
	//   register leaks: 0
	//   heap plaintext leaks: 0
	// OK: shared plaintext for the threads, ciphertext for the OS
}

// Example_secureChannel connects two cloaked processes through protected
// shared memory — a feature built on the paper's vault-identity machinery.
// The guest kernel implements the sharing (it allocates and maps the
// frames), yet every snapshot it can take of the channel shows only
// ciphertext.
func Example_secureChannel() {
	sys := core.NewSystem(core.Config{MemoryPages: 1024})

	messages := [][]byte{
		[]byte("msg-1: rotate the API keys tonight"),
		[]byte("msg-2: the audit found nothing, as planned"),
		[]byte("msg-3: wire the retainer to escrow"),
	}

	// Hostile kernel: photograph the channel pages at every trap.
	var snapshots [][]byte
	chanVA := core.Addr(guestos.LayoutMmapBase * core.PageSize)
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		buf := make([]byte, 64)
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, chanVA+8192, buf, false); err == nil {
			snapshots = append(snapshots, append([]byte(nil), buf...))
		}
	}

	var received [][]byte
	sys.Register("sender", func(e core.Env) {
		base, err := e.ShmAttach("channel", 3)
		if err != nil {
			panic(err)
		}
		data := base + core.Addr(2*core.PageSize)
		for i, msg := range messages {
			for e.Load64(base+8) != uint64(i) { // wait for ack
				e.Yield()
			}
			e.WriteMem(data, append(msg, 0))
			e.Store64(base, uint64(i+1)) // publish
		}
		for e.Load64(base+8) != uint64(len(messages)) {
			e.Yield()
		}
		e.Exit(0)
	})
	sys.Register("receiver", func(e core.Env) {
		base, err := e.ShmAttach("channel", 3)
		if err != nil {
			panic(err)
		}
		data := base + core.Addr(2*core.PageSize)
		for i := range messages {
			for e.Load64(base) != uint64(i+1) {
				e.Sleep(20_000)
			}
			buf := make([]byte, 64)
			e.ReadMem(data, buf)
			if n := bytes.IndexByte(buf, 0); n >= 0 {
				buf = buf[:n]
			}
			received = append(received, buf)
			e.Store64(base+8, uint64(i+1)) // ack
		}
		e.Exit(0)
	})

	sys.Spawn("sender", core.Cloaked())
	sys.Spawn("receiver", core.Cloaked())
	sys.Run()

	fmt.Printf("receiver got %d messages:\n", len(received))
	allOK := true
	for i, m := range received {
		ok := bytes.Equal(m, messages[i])
		allOK = allOK && ok
		fmt.Printf("  %q (intact: %v)\n", m, ok)
	}
	leaks := 0
	for _, s := range snapshots {
		for _, m := range messages {
			if bytes.Contains(s, m[:8]) {
				leaks++
			}
		}
	}
	fmt.Printf("\nkernel photographed the channel %d times; plaintext leaks: %d\n",
		len(snapshots), leaks)
	if len(snapshots) > 0 {
		fmt.Printf("sample kernel view: %x…\n", snapshots[len(snapshots)-1][:24])
	}
	if allOK && leaks == 0 {
		fmt.Println("OK: a confidential channel over OS-managed shared memory")
	} else {
		fmt.Println("FAILURE")
	}
	// Output:
	// receiver got 3 messages:
	//   "msg-1: rotate the API keys tonight" (intact: true)
	//   "msg-2: the audit found nothing, as planned" (intact: true)
	//   "msg-3: wire the retainer to escrow" (intact: true)
	//
	// kernel photographed the channel 9 times; plaintext leaks: 0
	// sample kernel view: b2ccc2f7ff826fdde6055b67426549bb0723556ff648ee63…
	// OK: a confidential channel over OS-managed shared memory
}

// Example_kvStore is the paper's motivating deployment: a data-handling
// server whose operator does not trust the operating system. A cloaked
// key-value server keeps its table in protected memory and persists it to a
// cloaked file; its client talks to it over pipes (marshalled transport). A
// hostile kernel snoops memory at every trap and reads the database file
// off "disk" — and gets ciphertext both times, while the service works
// normally.
func Example_kvStore() {
	sys := core.NewSystem(core.Config{MemoryPages: 2048})

	// The hostile kernel, doing both live snooping and cold reads.
	var liveLeaks, traps int
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		traps++
		buf := make([]byte, 256)
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, heapVA, buf, false); err == nil {
			if bytes.Contains(buf, []byte("launchcode")) || bytes.Contains(buf, []byte("hunter2")) {
				liveLeaks++
			}
		}
	}

	// The server forks the client itself (pipes need a common ancestor).
	sys.Register("kvserver", kvServer)
	if _, err := sys.Spawn("kvserver", core.Cloaked()); err != nil {
		panic(err)
	}
	sys.Run()

	// Cold audit: what does the database file hold?
	stored, err := sys.ReadGuestFile("/secret/kv.db")
	if err != nil {
		panic(err)
	}
	coldLeak := bytes.Contains(stored, []byte("hunter2")) ||
		bytes.Contains(stored, []byte("launchcode"))
	fmt.Printf("\naudit: %d traps snooped, live plaintext leaks: %d\n", traps, liveLeaks)
	fmt.Printf("audit: database file on disk is %d bytes; plaintext found: %v\n",
		len(stored), coldLeak)
	fmt.Printf("audit: first db bytes: %x…\n", stored[:24])
	if liveLeaks == 0 && !coldLeak {
		fmt.Println("OK: the store served queries while memory, file, and swap stayed opaque")
	} else {
		fmt.Println("FAILURE")
	}
	// Output:
	// client: all lookups correct: true
	// server: handled 9 requests, persisted 64-slot table
	//
	// audit: 88 traps snooped, live plaintext leaks: 0
	// audit: database file on disk is 4096 bytes; plaintext found: false
	// audit: first db bytes: f983efb67cb76a46ba6658b45a21c21346df92923d7e79a0…
	// OK: the store served queries while memory, file, and swap stayed opaque
}

// The kvStore protocol over the request pipe: op byte ('P'ut/'G'et/'Q'uit),
// 1-byte key length, key, then for Put a 1-byte value length and the value.
// The reply pipe carries a 1-byte length (0 = not found) and the value.
const (
	maxPairs  = 64
	slotBytes = 64 // 1B klen + 31B key + 1B vlen + 31B value
)

// kvServer owns the protected table and answers requests until 'Q'.
func kvServer(e core.Env) {
	e.Mkdir("/secret")
	table, _ := e.Sbrk(int64(maxPairs*slotBytes/core.PageSize) + 1)
	io, _ := e.Alloc(1)

	reqR, reqW, _ := e.Pipe()
	repR, repW, _ := e.Pipe()
	pid, err := e.Fork(func(c core.Env) {
		c.Close(reqR)
		c.Close(repW)
		kvClient(c, reqW, repR)
	})
	if err != nil {
		e.Exit(1)
	}
	e.Close(reqW)
	e.Close(repR)

	readN := func(n int) []byte {
		out := make([]byte, n)
		got := 0
		for got < n {
			m, err := e.Read(reqR, io, n-got)
			if err != nil || m == 0 {
				e.Exit(1)
			}
			e.ReadMem(io, out[got:got+m])
			got += m
		}
		return out
	}
	slot := func(i int) core.Addr { return table + core.Addr(i*slotBytes) }
	findOrFree := func(key []byte) (int, bool) {
		free := -1
		for i := 0; i < maxPairs; i++ {
			var kl [1]byte
			e.ReadMem(slot(i), kl[:])
			if kl[0] == 0 {
				if free < 0 {
					free = i
				}
				continue
			}
			k := make([]byte, kl[0])
			e.ReadMem(slot(i)+1, k)
			if bytes.Equal(k, key) {
				return i, true
			}
		}
		return free, false
	}

	served := 0
	for {
		op := readN(1)[0]
		if op == 'Q' {
			break
		}
		klen := int(readN(1)[0])
		key := readN(klen)
		i, found := findOrFree(key)
		switch op {
		case 'P':
			vlen := int(readN(1)[0])
			val := readN(vlen)
			if i < 0 {
				e.Exit(2) // table full
			}
			e.WriteMem(slot(i), append([]byte{byte(klen)}, key...))
			e.WriteMem(slot(i)+32, append([]byte{byte(vlen)}, val...))
			e.WriteMem(io, []byte{1})
			e.Write(repW, io, 1)
		case 'G':
			if !found {
				e.WriteMem(io, []byte{0})
				e.Write(repW, io, 1)
				break
			}
			var vl [1]byte
			e.ReadMem(slot(i)+32, vl[:])
			val := make([]byte, vl[0])
			e.ReadMem(slot(i)+33, val)
			e.WriteMem(io, append(vl[:], val...))
			e.Write(repW, io, 1+len(val))
		}
		served++
	}

	// Persist the table to the cloaked database file.
	fd, err := e.Open("/secret/kv.db", core.OCreate|core.OWrOnly|core.OTrunc)
	if err != nil {
		e.Exit(1)
	}
	if _, err := e.Write(fd, table, maxPairs*slotBytes); err != nil {
		e.Exit(1)
	}
	e.Close(fd)
	fmt.Printf("server: handled %d requests, persisted %d-slot table\n", served, maxPairs)
	e.WaitPid(pid)
	e.Exit(0)
}

// kvClient issues a workload of puts and gets and verifies the answers.
func kvClient(e core.Env, reqW, repR int) {
	io, _ := e.Alloc(1)
	send := func(b []byte) {
		e.WriteMem(io, b)
		off := 0
		for off < len(b) {
			n, err := e.Write(reqW, io+core.Addr(off), len(b)-off)
			if err != nil {
				e.Exit(1)
			}
			off += n
		}
	}
	recv := func() []byte {
		n, err := e.Read(repR, io, 64)
		if err != nil || n == 0 {
			e.Exit(1)
		}
		out := make([]byte, n)
		e.ReadMem(io, out)
		return out
	}
	put := func(k, v string) {
		msg := []byte{'P', byte(len(k))}
		msg = append(msg, k...)
		msg = append(msg, byte(len(v)))
		msg = append(msg, v...)
		send(msg)
		recv()
	}
	get := func(k string) string {
		msg := []byte{'G', byte(len(k))}
		send(append(msg, k...))
		rep := recv()
		if rep[0] == 0 {
			return ""
		}
		for len(rep) < int(rep[0])+1 {
			rep = append(rep, recv()...)
		}
		return string(rep[1 : 1+rep[0]])
	}

	put("alice-password", "hunter2")
	put("missile", "launchcode-0451")
	put("color", "blue")
	ok := true
	ok = ok && get("alice-password") == "hunter2"
	ok = ok && get("missile") == "launchcode-0451"
	ok = ok && get("color") == "blue"
	ok = ok && get("missing") == ""
	put("color", "red") // overwrite
	ok = ok && get("color") == "red"
	fmt.Printf("client: all lookups correct: %v\n", ok)
	send([]byte{'Q'})
	e.Close(reqW)
	e.Close(repR)
	e.Exit(0)
}
