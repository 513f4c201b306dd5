package main

import (
	"errors"
	"fmt"
	"time"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/migrate"
	"overshadow/internal/mmu"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// probeBatches is how many batches each probe times; it reports the median.
const probeBatches = 5

// timeOp runs op n times per batch and returns the median host ns per op.
// prep, when set, runs before each batch, outside the timing.
func timeOp(n int, prep func(), op func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		if prep != nil {
			prep()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// runProbes times each layer's exported functions in isolation, with
// inputs shaped like the workloads' (4 KiB pages, working sets larger than
// the TLB, the seal workload's journal cadence). Set-up is never timed.
func runProbes(scale float64) (map[string]float64, error) {
	n := func(full int) int { return max(1, int(float64(full)*scale)) }
	cost := sim.DefaultCostModel()
	out := make(map[string]float64)

	w := sim.NewWorld(cost, 1)
	cpu := w.Boot()
	out["sim.charge_ns"] = timeOp(n(200000), nil, func(int) { cpu.ChargeCount(cost.TLBHit, sim.CtrTLBHit) })

	tlb := mmu.NewTLB(cpu, 256)
	for vpn := uint64(0); vpn < 64; vpn++ {
		tlb.Insert(1, vpn, mmu.PTE{PN: vpn, Flags: mmu.FlagPresent})
	}
	out["mmu.tlb_lookup_ns"] = timeOp(n(200000), nil, func(i int) { tlb.Lookup(1, uint64(i&63)) })

	if err := probeVMM(out, n); err != nil {
		return nil, err
	}
	if err := probeCloak(out, n); err != nil {
		return nil, err
	}

	disk := mach.NewDisk(w, 1024)
	page := make([]byte, mach.PageSize)
	out["mach.disk_write_ns"] = timeOp(n(20000), nil, func(i int) { _ = disk.Write(uint64(i&255), page) })
	out["mach.disk_read_ns"] = timeOp(n(20000), nil, func(i int) { _ = disk.Read(uint64(i&255), page) })

	if err := probePersist(out, n); err != nil {
		return nil, err
	}
	if err := probeMigrate(out, n); err != nil {
		return nil, err
	}
	for _, cloaked := range []bool{false, true} {
		if err := probeEnv(out, n, cloaked); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeVMM times shadow translation on a TLB hit and on a TLB miss that
// walks a filled shadow table, and a cloaked thread's trap round trip.
func probeVMM(out map[string]float64, n func(int) int) error {
	const pages = 4096
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	v, err := vmm.New(w, vmm.Config{GuestPages: pages})
	if err != nil {
		return err
	}
	pt := mmu.NewPageTable()
	as := v.CreateAddressSpace(pt)
	for vpn := uint64(0); vpn < pages; vpn++ {
		pt.Map(vpn, mmu.PTE{PN: vpn, Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})
	}
	var terr error
	translate := func(vpn uint64) {
		if _, err := v.Translate(as, vmm.ViewApp, vpn, mmu.AccessRead, true); err != nil && terr == nil {
			terr = err
		}
	}
	for vpn := uint64(0); vpn < pages; vpn++ {
		translate(vpn)
	}
	out["vmm.translate_hit_ns"] = timeOp(n(200000), func() { translate(0) }, func(int) { translate(0) })
	// A sweep over 16x the 256-entry TLB misses almost every time.
	out["vmm.translate_miss_ns"] = timeOp(n(100000), nil, func(i int) { translate(uint64(i) % pages) })
	if terr != nil {
		return fmt.Errorf("probe vmm.Translate: %w", terr)
	}

	conn, err := v.HCCreateDomain(v.CreateAddressSpace(mmu.NewPageTable()))
	if err != nil {
		return err
	}
	th := v.CreateThread(conn.Domain())
	out["vmm.trap_rt_ns"] = timeOp(n(100000), nil, func(int) {
		th.EnterKernel(vmm.TrapSyscall)
		if err := th.ExitKernel(); err != nil && terr == nil {
			terr = err
		}
	})
	if terr != nil {
		return fmt.Errorf("probe vmm trap round trip: %w", terr)
	}
	return nil
}

// probeCloak times page encryption and verified decryption of 4 KiB pages
// and metadata lookups over a working set of 1024 pages.
func probeCloak(out map[string]float64, n func(int) int) error {
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	e := cloak.NewEngine(w, cloak.NewMasterKeyer([]byte("bench")))
	id := cloak.PageID{Domain: 1, Resource: 1}
	page := make([]byte, mach.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	var version uint64
	out["cloak.encrypt_ns"] = timeOp(n(4000), nil, func(int) { version = e.EncryptPage(id, version, page).Version })

	batch := n(400)
	pages := make([][]byte, batch)
	metas := make([]cloak.Meta, batch)
	prep := func() {
		for i := range pages {
			pages[i] = append(pages[i][:0], page...)
			metas[i] = e.EncryptPage(cloak.PageID{Domain: 1, Resource: 2, Index: uint64(i)}, 0, pages[i])
		}
	}
	// Failures are counted, not kept: the errors of calls that handle
	// decrypted pages or sealing keys never reach output.
	failed := 0
	out["cloak.decrypt_ns"] = timeOp(batch, prep, func(i int) {
		if e.DecryptPage(cloak.PageID{Domain: 1, Resource: 2, Index: uint64(i)}, metas[i], pages[i]) != nil {
			failed++
		}
	})
	if failed != 0 {
		return fmt.Errorf("probe cloak.DecryptPage: %d pages failed verification", failed)
	}

	ms := cloak.NewMetaStore(w, 4096)
	for i := uint64(0); i < 1024; i++ {
		ms.Put(cloak.PageID{Domain: 1, Resource: 1, Index: i}, cloak.Meta{Version: 1})
	}
	out["cloak.meta_get_ns"] = timeOp(n(200000), nil, func(i int) {
		ms.Get(cloak.PageID{Domain: 1, Resource: 1, Index: uint64(i*7) & 1023})
	})
	return nil
}

// probePersist times a journal append (Put) and a checkpoint of the
// seal victim's table size, on the seal machine's journal geometry.
func probePersist(out map[string]float64, n func(int) int) error {
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	const blocks, entries = 256, 128
	key := persist.SealKey(1)
	var j *persist.Journal
	fresh := func() {
		// A new journal per batch keeps every timed Put an append: the log
		// holds 4096 records before it must fold into a checkpoint.
		var err error
		j, err = persist.NewJournal(w, mach.NewDisk(w, blocks), 0, blocks, key, persist.Options{CheckpointEvery: 1 << 30})
		if err != nil {
			panic(err) // fixed geometry: cannot fail
		}
	}
	meta := cloak.Meta{Version: 3}
	puts := min(n(3000), 4000)
	out["persist.put_ns"] = timeOp(puts, fresh, func(i int) {
		j.Put(cloak.PageID{Domain: 1, Resource: 1, Index: uint64(i % entries)}, meta)
	})
	fresh()
	for i := 0; i < entries; i++ {
		j.Put(cloak.PageID{Domain: 1, Resource: 1, Index: uint64(i)}, meta)
	}
	out["persist.checkpoint_ns"] = timeOp(n(400), nil, func(int) { j.Checkpoint() })
	if j.Wedged() {
		return errors.New("probe persist: journal wedged")
	}
	return nil
}

// probeMigrate times the checkpoint codec on a victim-sized checkpoint,
// per page.
func probeMigrate(out map[string]float64, n func(int) int) error {
	const pages = 128
	ckpt := &migrate.Checkpoint{Domain: 1, Epoch: 7, SrcVCPUs: 1}
	for i := 0; i < pages; i++ {
		data := make([]byte, mach.PageSize)
		for k := range data {
			data[k] = byte(i + k)
		}
		ckpt.Pages = append(ckpt.Pages, migrate.PageRecord{
			ID: cloak.PageID{Domain: 1, Resource: 1, Index: uint64(i)}, Meta: cloak.Meta{Version: 1}, Data: data})
	}
	key := migrate.SealKeyFor(persist.SealKey(1))
	blob := migrate.Encode(ckpt, key)
	out["migrate.encode_ns_page"] = timeOp(n(150), nil, func(int) { migrate.Encode(ckpt, key) }) / pages
	failed := 0
	out["migrate.decode_ns_page"] = timeOp(n(150), nil, func(int) {
		got, rejs, err := migrate.Decode(blob, key)
		if err != nil || len(rejs) != 0 || len(got.Pages) != pages {
			failed++
		}
	}) / pages
	if failed != 0 {
		return fmt.Errorf("probe migrate.Decode: %d decodes failed", failed)
	}
	return nil
}

// probeEnv times the app-visible operations the workloads lean on from
// inside a guest, natively (guestos.*) or through the shim (shim.*).
func probeEnv(out map[string]float64, n func(int) int, cloaked bool) error {
	prefix, opts := "guestos.", []core.SpawnOpt(nil)
	if cloaked {
		prefix, opts = "shim.", []core.SpawnOpt{core.Cloaked()}
	}
	sys := core.NewSystem(core.Config{MemoryPages: 1024})
	var null, load, pipe, fork float64
	var failed error
	check := func(e core.Env, err error) {
		if err != nil {
			failed = err
			e.Exit(1)
		}
	}
	sys.Register("probe", func(e core.Env) {
		null = timeOp(n(20000), nil, func(int) { e.Null() })

		base, err := e.Alloc(16)
		check(e, err)
		for p := 0; p < 16; p++ {
			e.Store64(base+core.Addr(p*core.PageSize), 1)
		}
		load = timeOp(n(100000), nil, func(i int) { e.Load64(base + core.Addr((i&15)*core.PageSize)) })

		r1, w1, err := e.Pipe()
		check(e, err)
		r2, w2, err := e.Pipe()
		check(e, err)
		buf, err := e.Alloc(1)
		check(e, err)
		echo, err := e.Fork(func(c core.Env) {
			check(c, c.Close(w1))
			check(c, c.Close(r2))
			cb, err := c.Alloc(1)
			check(c, err)
			for {
				if m, err := c.Read(r1, cb, 1); err != nil || m == 0 {
					break
				}
				if _, err := c.Write(w2, cb, 1); err != nil {
					break
				}
			}
			c.Exit(0)
		})
		check(e, err)
		check(e, e.Close(r1))
		check(e, e.Close(w2))
		pipe = timeOp(n(2000), nil, func(int) {
			_, err := e.Write(w1, buf, 1)
			check(e, err)
			_, err = e.Read(r2, buf, 1)
			check(e, err)
		})
		check(e, e.Close(w1))
		check(e, e.Close(r2))
		_, _, err = e.WaitPid(echo)
		check(e, err)

		fork = timeOp(n(40), nil, func(int) {
			pid, err := e.Fork(func(c core.Env) { c.Exit(0) })
			check(e, err)
			_, _, err = e.WaitPid(pid)
			check(e, err)
		})
		e.Exit(0)
	})
	if _, err := sys.Spawn("probe", opts...); err != nil {
		return err
	}
	sys.Run()
	if failed != nil {
		return fmt.Errorf("probe %senv: %w", prefix, failed)
	}
	out[prefix+"null_ns"] = null
	out[prefix+"load64_ns"] = load
	out[prefix+"pipe_rtt_ns"] = pipe
	out[prefix+"fork_ns"] = fork
	return nil
}
