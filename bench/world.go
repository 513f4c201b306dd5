package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/migrate"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// worldResult is what one run of one world measured and observed.
type worldResult struct {
	setupNS int64 // NewSystem + Register + Spawn of the world's machine
	worldNS int64 // the whole world, setup to the last check
	heap    uint64
	// Simulated outcome: must repeat exactly in every pass.
	cycles sim.Cycles
	stats  map[sim.Counter]uint64
	digest uint64
	memOps uint64 // app memory accesses, each one charge on the access path
	// simByCounter is the attributed cycle split (metrics pass only).
	simByCounter map[string]uint64
	// Seal outcome.
	captures  int
	blobBytes int
	err       error
}

// runWorld boots, runs and checks one world. tr is non-nil in the traced
// pass; metrics turns on attributed cycle accounting. Host time covers
// everything from NewSystem to the last check; the heap reading and the GC
// that precedes it are outside it.
func runWorld(w *world, tr *tracer, metrics bool) (res worldResult) {
	start := time.Now()
	if tr != nil {
		tr.beginWorld(w.id)
		defer tr.endWorld()
	}
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("panic: %v", r)
		}
	}()
	m := &machines{tr: tr, metrics: metrics}

	tr.hostBegin(spanNewSystem)
	sys := core.NewSystem(w.cfg)
	a := newApp(tr)
	sys.Register("app", a.wrap(w.prog))
	var opts []core.SpawnOpt
	if w.cloaked {
		opts = append(opts, core.Cloaked())
	}
	pid, err := sys.Spawn("app", opts...)
	tr.hostEnd()
	res.setupNS = int64(time.Since(start))
	if err != nil {
		res.err = err
		return res
	}
	m.add(sys, a)

	var s *sealRun
	if w.seal != nil {
		s = &sealRun{w: w, m: m, src: sys}
		s.arm(pid)
	}
	tr.hostBegin(spanRun)
	sys.Run()
	tr.hostEnd()

	if s != nil {
		res.err = s.finish(a)
		res.captures, res.blobBytes = len(s.blobs), s.blobBytes
	} else {
		tr.hostBegin(spanVerify)
		if a.clean != 1 {
			res.err = fmt.Errorf("guest exited with status %d", a.status)
		}
		tr.hostEnd()
	}
	if res.err == nil {
		res.err = m.checkClocks()
	}
	res.worldNS = int64(time.Since(start))

	m.collect(&res)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heap = ms.HeapAlloc
	runtime.KeepAlive(m)
	return res
}

// machines collects every machine a world booted, with its guest apps.
type machines struct {
	tr      *tracer
	metrics bool
	systems []*core.System
	apps    []*app
}

func (m *machines) add(sys *core.System, a *app) {
	if m.metrics {
		sys.World.EnableMetrics(nil)
	}
	m.systems = append(m.systems, sys)
	m.apps = append(m.apps, a)
}

// checkClocks verifies the per-vCPU accounting invariant on every machine.
func (m *machines) checkClocks() error {
	for i, sys := range m.systems {
		var sum sim.Cycles
		for _, c := range sys.World.VCPUs() {
			sum += c.Cycles()
		}
		if sum != sys.Now() {
			return fmt.Errorf("machine %d: vCPU cycles sum to %d, clock reads %d", i, sum, sys.Now())
		}
	}
	return nil
}

// collect sums the simulated outcome over the world's machines into res.
func (m *machines) collect(res *worldResult) {
	res.stats = make(map[sim.Counter]uint64)
	if m.metrics {
		res.simByCounter = make(map[string]uint64)
	}
	digest := &task{digest: fnvOffset}
	for i, sys := range m.systems {
		res.cycles += sys.Now()
		for k, v := range sys.Stats().Snapshot() {
			res.stats[k] += v
		}
		if a := m.apps[i]; a != nil {
			digest.mix(a.digest())
			res.memOps += a.memOps()
		}
		if m.metrics {
			for _, nt := range sys.World.Metrics.TotalsSorted() {
				res.simByCounter[nt.Name] += nt.Cycles
			}
		}
	}
	res.digest = digest.digest
}

// sealRun drives a seal world's migrations or its crash and reboot, and
// checks the three verdicts: secrecy, integrity and freshness.
type sealRun struct {
	w         *world
	m         *machines
	src       *core.System
	blobs     [][]byte
	blobBytes int
	migErr    error
}

// arm installs the migration hook: at each drawn point the source machine
// is quiesced at a dispatch boundary and the domain's sealed checkpoint is
// captured and transferred; the source then keeps running.
func (s *sealRun) arm(pid core.Pid) {
	at := s.w.seal.migrateAt
	if len(at) == 0 {
		return
	}
	next := 0
	var hook func()
	hook = func() {
		s.m.tr.hostBegin(spanMigrate)
		blob, _, err := migrate.Migrate(s.src, s.src.DomainOf(pid))
		s.m.tr.hostEnd()
		if err != nil && s.migErr == nil {
			s.migErr = err
		}
		if err == nil {
			s.blobs = append(s.blobs, blob)
			s.blobBytes += len(blob)
		}
		if next++; next < len(at) {
			s.src.MigrateAt(at[next], hook)
		}
	}
	s.src.MigrateAt(at[0], hook)
}

func (s *sealRun) finish(a *app) error {
	if len(s.w.seal.migrateAt) > 0 {
		return s.finishMigrate(a)
	}
	return s.finishCrash()
}

func (s *sealRun) finishMigrate(a *app) error {
	tr := s.m.tr
	if s.migErr != nil {
		return fmt.Errorf("migrate: %w", s.migErr)
	}
	if len(s.blobs) != len(s.w.seal.migrateAt) {
		return fmt.Errorf("captured %d of %d checkpoints", len(s.blobs), len(s.w.seal.migrateAt))
	}
	if a.clean != 1 || s.src.Crashed() {
		return fmt.Errorf("source victim did not finish (status %d)", a.status)
	}
	if err := s.secret(s.src); err != nil {
		return err
	}
	for i, blob := range s.blobs {
		if bytes.Contains(blob, sealMarker[:8]) {
			return fmt.Errorf("secrecy: marker in checkpoint %d", i)
		}
		// The destination shares the source's seed (the sealing trust root)
		// but has room for the whole victim, so the resume check measures
		// the restore rather than swapping.
		dcfg := s.w.cfg
		dcfg.MemoryPages = sealDstRAM
		tr.hostBegin(spanNewSystem)
		dst := core.NewSystem(dcfg)
		tr.hostEnd()
		tr.hostBegin(spanRestore)
		rep, err := migrate.Restore(dst, blob)
		tr.hostEnd()
		s.m.add(dst, nil)
		if err != nil {
			return fmt.Errorf("restore %d: %w", i, err)
		}
		if rep.RejectedBy(persist.RejectRollback) != 0 || rep.RejectedBy(persist.RejectStaleEpoch) != 0 ||
			dst.Journal.Epoch() <= rep.Epoch {
			return fmt.Errorf("freshness: restore %d", i)
		}
		marked, err := s.checkPages(rep.Pages, true)
		if err != nil {
			return fmt.Errorf("restore %d: %w", i, err)
		}
		if i == len(s.blobs)-1 {
			return s.resume(dst, marked)
		}
	}
	return nil
}

// finishCrash reboots the crashed world machine, then crashes and reboots
// a fresh machine at each further crash point; the last rebooted machine
// runs the resume check.
func (s *sealRun) finishCrash() error {
	tr := s.m.tr
	crashed := s.src
	for i, at := range s.w.seal.crashAt {
		if i > 0 {
			cfg := s.w.cfg
			cfg.CrashAt = at
			tr.hostBegin(spanNewSystem)
			crashed = core.NewSystem(cfg)
			a := newApp(tr)
			crashed.Register("victim", a.wrap(s.w.prog))
			_, err := crashed.Spawn("victim", core.Cloaked())
			tr.hostEnd()
			if err != nil {
				return err
			}
			s.m.add(crashed, a)
			tr.hostBegin(spanRun)
			crashed.Run()
			tr.hostEnd()
		}
		if !crashed.Crashed() {
			return fmt.Errorf("crash point %d never reached", i)
		}
		tr.hostBegin(spanReboot)
		sys2, rep, err := core.Reboot(crashed)
		tr.hostEnd()
		if err != nil {
			return fmt.Errorf("reboot %d: %w", i, err)
		}
		s.m.add(sys2, nil)
		if err := s.secret(crashed); err != nil {
			return err
		}
		if rep.RollbackRejections() != 0 || sys2.Journal.Epoch() <= rep.Epoch {
			return fmt.Errorf("freshness: reboot %d", i)
		}
		marked, err := s.checkPages(rep.Pages, false)
		if err != nil {
			return fmt.Errorf("reboot %d: %w", i, err)
		}
		if i == len(s.w.seal.crashAt)-1 {
			return s.resume(sys2, marked)
		}
	}
	return nil
}

// checkPages checks recovered pages and returns the victim's. Every
// recovered marker page must carry a stamp the victim wrote; unavailable
// pages must carry nothing. A migrated domain was live when captured, so
// none of its pages may be unavailable (a crash legitimately loses pages
// that lived only in RAM).
func (s *sealRun) checkPages(pages []core.PageOutcome, migrated bool) ([][]byte, error) {
	s.m.tr.hostBegin(spanVerify)
	defer s.m.tr.hostEnd()
	var marked [][]byte
	for _, pg := range pages {
		switch {
		case migrated && pg.State != core.Recovered:
			return nil, fmt.Errorf("integrity: migrated page %v is %v", pg.ID, pg.State)
		case pg.State != core.Recovered && pg.Data != nil:
			return nil, fmt.Errorf("integrity: unavailable page %v carries data", pg.ID)
		case pg.State == core.Recovered && bytes.HasPrefix(pg.Data, sealMarker):
			if stampOf(pg.Data) >= uint64(s.w.seal.pages) {
				return nil, fmt.Errorf("integrity: page %v carries a stamp the victim never wrote", pg.ID)
			}
			marked = append(marked, pg.Data)
		}
	}
	return marked, nil
}

// resume lands the recovered pages in a fresh cloaked domain on sys, which
// reads them back; then neither disk of sys may hold the marker.
func (s *sealRun) resume(sys *core.System, marked [][]byte) error {
	tr := s.m.tr
	tr.hostBegin(spanVerify)
	defer tr.hostEnd()
	a := newApp(tr)
	sys.Register("resume", a.wrap(resumeProgram(s.w.seal.pages, marked)))
	if _, err := sys.Spawn("resume", core.Cloaked()); err != nil {
		return err
	}
	s.m.apps[slices.Index(s.m.systems, sys)] = a
	tr.hostBegin(spanRun)
	sys.Run()
	tr.hostEnd()
	if a.clean != 1 {
		return fmt.Errorf("integrity: resume check exited %d", a.status)
	}
	return s.secret(sys)
}

// secret checks that the marker reached neither disk of sys.
func (s *sealRun) secret(sys *core.System) error {
	s.m.tr.hostBegin(spanVerify)
	defer s.m.tr.hostEnd()
	for _, d := range []*mach.Disk{sys.Kernel.SwapDisk(), sys.Kernel.FS().Disk()} {
		for b := uint64(0); b < d.NumBlocks(); b++ {
			if bytes.Contains(d.PokeRaw(b), sealMarker[:8]) {
				return fmt.Errorf("secrecy: marker on disk block %d", b)
			}
		}
	}
	return nil
}
