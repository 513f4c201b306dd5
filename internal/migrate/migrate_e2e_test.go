package migrate

import (
	"bytes"
	"errors"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/fault"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// e2eSecret is the plaintext marker the end-to-end victims plant.
var e2eSecret = []byte("MIGRATE-E2E-SECRET-0123456789abcdef")

const e2ePages = 24

// e2eConfig is the small journaled machine the end-to-end tests boot.
func e2eConfig(seed uint64) core.Config {
	return core.Config{
		MemoryPages: 48,
		Seed:        seed,
		Persist:     &persist.Options{CheckpointEvery: 8},
	}
}

// e2eRegister installs a victim that stamps e2ePages cloaked pages and then
// churns them; done reports clean completion.
func e2eRegister(sys *core.System, done *bool) {
	sys.Register("victim", func(e core.Env) {
		base := must(e.Alloc(e2ePages))
		for i := 0; i < e2ePages; i++ {
			va := base + core.Addr(i*core.PageSize)
			e.WriteMem(va, e2eSecret)
			e.Store64(va+64, uint64(i))
		}
		for round := 0; round < 3; round++ {
			e.Null()
			for i := 0; i < e2ePages; i++ {
				va := base + core.Addr(i*core.PageSize)
				if e.Load64(va+64) != uint64(i) {
					return
				}
			}
		}
		*done = true
		e.Exit(0)
	})
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// e2eHalf runs the victim once to completion and returns the midpoint of
// the run — a deterministic mid-flight migration deadline.
func e2eHalf(t *testing.T, seed uint64) sim.Cycles {
	t.Helper()
	sys := core.NewSystem(e2eConfig(seed))
	var done bool
	e2eRegister(sys, &done)
	if _, err := sys.Spawn("victim", core.Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !done {
		t.Fatal("probe victim did not complete")
	}
	return sys.Now() / 2
}

// e2eMigrate boots a source with the given fault plan, migrates its victim
// domain at `at`, and returns the source, the delivered blob (nil on
// abort), the transfer stats/error, and whether the victim then finished.
func e2eMigrate(t *testing.T, seed uint64, at sim.Cycles, plan *fault.Plan) (*core.System, []byte, TransferStats, error, bool) {
	t.Helper()
	cfg := e2eConfig(seed)
	cfg.Fault = plan
	sys := core.NewSystem(cfg)
	var done bool
	e2eRegister(sys, &done)
	pid, err := sys.Spawn("victim", core.Cloaked())
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	var stats TransferStats
	var migErr error
	sys.MigrateAt(at, func() {
		blob, stats, migErr = Migrate(sys, sys.DomainOf(pid))
	})
	sys.Run()
	return sys, blob, stats, migErr, done
}

// TestMigrateEndToEnd: capture mid-run, transfer clean, restore on a fresh
// machine — every page lands verified, the marker never touches the blob
// or either machine's disks, and the destination epoch ends strictly ahead.
func TestMigrateEndToEnd(t *testing.T) {
	at := e2eHalf(t, 7)
	src, blob, _, migErr, done := e2eMigrate(t, 7, at, nil)
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	if !done || src.Crashed() {
		t.Fatal("source victim did not finish after the migration")
	}
	if bytes.Contains(blob, e2eSecret[:8]) {
		t.Fatal("plaintext marker in the transferred blob")
	}

	dst := core.NewSystem(e2eConfig(7))
	rep, err := Restore(dst, blob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rep.Unavailable != 0 || len(rep.Rejections) != 0 {
		t.Fatalf("clean restore: unavailable=%d rejections=%v", rep.Unavailable, rep.Rejections)
	}
	if rep.Recovered == 0 || rep.Recovered != len(rep.Pages) {
		t.Fatalf("recovered %d of %d pages", rep.Recovered, len(rep.Pages))
	}
	markers := 0
	for _, p := range rep.Pages {
		if p.State != core.Recovered {
			continue
		}
		if bytes.HasPrefix(p.Data, e2eSecret) {
			markers++
		}
	}
	if markers == 0 {
		t.Fatal("no victim marker page among the recovered pages")
	}
	if dst.Journal.Epoch() <= rep.Epoch {
		t.Fatalf("destination epoch %d not ahead of checkpoint epoch %d", dst.Journal.Epoch(), rep.Epoch)
	}
	if id, ok := dst.VMM.DomainIdentity(rep.Domain); !ok || id != rep.Identity {
		t.Fatal("measured identity did not carry across the migration")
	}
	if len(rep.Threads) == 0 {
		t.Fatal("no thread state in the checkpoint")
	}
}

// TestMigrateStaleReplay: re-presenting an already-landed checkpoint is
// refused typed, audited as a migration rollback, and quarantines the
// target domain; the destination journal is untouched by the refusal.
func TestMigrateStaleReplay(t *testing.T) {
	at := e2eHalf(t, 9)
	_, blob, _, migErr, _ := e2eMigrate(t, 9, at, nil)
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	dst := core.NewSystem(e2eConfig(9))
	// The decoded checkpoint aliases the blob, and restore verifies each
	// page where it lies and decrypts it into a buffer of its own, so the
	// delivered bytes stay as they arrived, with no plaintext in them, for
	// the replay below to present.
	sent := bytes.Clone(blob)
	rep, err := Restore(dst, blob)
	if err != nil {
		t.Fatalf("first restore: %v", err)
	}
	if rep.Recovered == 0 {
		t.Fatal("first restore recovered no page")
	}
	if !bytes.Equal(blob, sent) || bytes.Contains(blob, e2eSecret[:8]) {
		t.Fatal("first restore modified the delivered blob")
	}
	epoch := dst.Journal.Epoch()

	if _, err := Restore(dst, blob); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("replay: err=%v, want ErrStaleCheckpoint", err)
	}
	if !bytes.Equal(blob, sent) {
		t.Fatal("refused replay modified the delivered blob")
	}
	if !dst.VMM.Quarantined(rep.Domain) {
		t.Fatal("replayed domain not quarantined")
	}
	audited := false
	for _, ev := range dst.SecurityEvents() {
		if ev.Kind == vmm.EventMigrationRollback {
			audited = true
		}
	}
	if !audited {
		t.Fatal("no migration-rollback audit event")
	}
	if dst.Journal.Epoch() != epoch {
		t.Fatal("refused replay moved the destination journal")
	}
	// Quarantined, the domain can no longer land anything.
	if _, err := Restore(dst, blob); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-quarantine restore: err=%v, want ErrQuarantined", err)
	}
}

// TestMigrateTransferClean: with no fault plan the channel delivers every
// frame untouched, so Transfer returns exactly Encode's bytes for the
// checkpoint, one frame per record and per ciphertext page.
func TestMigrateTransferClean(t *testing.T) {
	at := e2eHalf(t, 9)
	sys := core.NewSystem(e2eConfig(9))
	var done bool
	e2eRegister(sys, &done)
	pid, err := sys.Spawn("victim", core.Cloaked())
	if err != nil {
		t.Fatal(err)
	}
	var want, got []byte
	var stats TransferStats
	var xerr error
	var records, pages int
	sys.MigrateAt(at, func() {
		ckpt, cerr := Capture(sys, sys.DomainOf(pid))
		if cerr != nil {
			xerr = cerr
			return
		}
		// A snapshot: Encode of a captured checkpoint returns the capture's
		// own buffer, which Transfer's Encode below re-seals and delivers in
		// place, so an uncloned want would be got itself.
		want = bytes.Clone(Encode(ckpt, SealKeyFor(persist.SealKey(sys.Seed()))))
		records = 2 + len(ckpt.Pages) + len(ckpt.Threads)
		for _, p := range ckpt.Pages {
			if p.Data != nil {
				pages++
			}
		}
		got, stats, xerr = Transfer(sys, ckpt)
	})
	sys.Run()
	if xerr != nil {
		t.Fatalf("capture/transfer: %v", xerr)
	}
	if pages == 0 || !bytes.Equal(got, want) {
		t.Fatalf("transfer delivered %d bytes differing from Encode's %d (%d ciphertext pages)", len(got), len(want), pages)
	}
	if stats.Frames != records+pages || stats.Bytes != len(want) || stats.Retries != 0 || stats.Corrupted != 0 {
		t.Fatalf("stats = %+v, want %d frames, %d bytes, no retries or damage", stats, records+pages, len(want))
	}
	if !done {
		t.Fatal("source victim did not complete after the migration")
	}
}

// TestMigrateTransferAbort: a channel that tears every frame exhausts the
// retry budget, aborts typed, delivers nothing — and the source victim
// keeps running to clean completion.
func TestMigrateTransferAbort(t *testing.T) {
	at := e2eHalf(t, 11)
	var plan fault.Plan
	plan.Rates[fault.SiteTransfer] = fault.Rate{TornPerMille: 1000}
	src, blob, stats, migErr, done := e2eMigrate(t, 11, at, &plan)
	if !errors.Is(migErr, ErrTransferAborted) {
		t.Fatalf("err=%v, want ErrTransferAborted", migErr)
	}
	if blob != nil {
		t.Fatal("aborted transfer delivered a blob")
	}
	if stats.Retries == 0 {
		t.Fatal("abort without consuming the retry budget")
	}
	if !done || src.Crashed() {
		t.Fatal("source victim did not survive the aborted migration")
	}
}

// TestMigrateTransferRetry: a bounded burst of lost frames is re-sent and
// the checkpoint still lands whole.
func TestMigrateTransferRetry(t *testing.T) {
	at := e2eHalf(t, 13)
	var plan fault.Plan
	plan.Rates[fault.SiteTransfer] = fault.Rate{FailPerMille: 1000, Max: 2}
	_, blob, stats, migErr, done := e2eMigrate(t, 13, at, &plan)
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	if stats.Retries != 2 {
		t.Fatalf("retries = %d, want 2", stats.Retries)
	}
	if !done {
		t.Fatal("source victim did not finish")
	}
	dst := core.NewSystem(e2eConfig(13))
	rep, err := Restore(dst, blob)
	if err != nil || rep.Unavailable != 0 {
		t.Fatalf("restore after retried transfer: err=%v unavailable=%d", err, rep.Unavailable)
	}
}

// TestMigrateWrongSeed: a destination with a different trust root cannot
// read the checkpoint at all — typed malformed, nothing restored.
func TestMigrateWrongSeed(t *testing.T) {
	at := e2eHalf(t, 15)
	_, blob, _, migErr, _ := e2eMigrate(t, 15, at, nil)
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	dst := core.NewSystem(e2eConfig(16))
	if _, err := Restore(dst, blob); !errors.Is(err, ErrCheckpointMalformed) {
		t.Fatalf("wrong-seed restore: err=%v, want ErrCheckpointMalformed", err)
	}
}

// TestMigrateCaptureRefusals: capture demands a journal and a real,
// unquarantined domain.
func TestMigrateCaptureRefusals(t *testing.T) {
	plain := core.NewSystem(core.Config{MemoryPages: 48, Seed: 1})
	if _, err := Capture(plain, 1); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("journal-less capture: err=%v, want ErrNoJournal", err)
	}
	sys := core.NewSystem(e2eConfig(1))
	if _, err := Capture(sys, 0); err == nil {
		t.Fatal("capture of domain 0 succeeded")
	}
	if _, err := Restore(plain, nil); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("journal-less restore: err=%v, want ErrNoJournal", err)
	}
}

// TestMigrateCorruptChannel: silent frame corruption is always detected at
// the destination — damaged records are rejected typed, damaged ciphertext
// pages verify-fail into typed unavailability, and plaintext never appears
// anywhere.
func TestMigrateCorruptChannel(t *testing.T) {
	at := e2eHalf(t, 17)
	var plan fault.Plan
	plan.Rates[fault.SiteTransfer] = fault.Rate{CorruptPerMille: 200}
	_, blob, stats, migErr, done := e2eMigrate(t, 17, at, &plan)
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	if stats.Corrupted == 0 {
		t.Fatal("corrupting channel corrupted nothing; raise the rate")
	}
	if !done {
		t.Fatal("source victim did not finish")
	}
	dst := core.NewSystem(e2eConfig(17))
	rep, err := Restore(dst, blob)
	if errors.Is(err, ErrCheckpointMalformed) {
		return // header/trailer took a hit: whole-blob typed refusal is fine
	}
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(rep.Rejections)+rep.Unavailable == 0 {
		t.Fatalf("%d corrupted frames left no trace at the destination", stats.Corrupted)
	}
	for _, p := range rep.Pages {
		if p.State != core.Recovered && p.Data != nil {
			t.Fatal("unverified page carries data")
		}
	}
}

// TestAdoptRefusals: the destination VMM refuses to adopt a domain that
// collides with live local state.
func TestAdoptRefusals(t *testing.T) {
	at := e2eHalf(t, 19)
	_, blob, _, migErr, _ := e2eMigrate(t, 19, at, nil)
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	dst := core.NewSystem(e2eConfig(19))
	// Occupy the incoming domain ID with a local workload first: running it
	// allocates the destination's domain 1, even though the squatter has
	// exited (and holds no pages) by the time the restore arrives.
	dst.Register("squatter", func(e core.Env) {
		base := must(e.Alloc(2))
		e.Store64(base, 1)
		e.Exit(0)
	})
	if _, err := dst.Spawn("squatter", core.Cloaked()); err != nil {
		t.Fatal(err)
	}
	dst.Run()
	ckpt, _, err := Decode(blob, SealKeyFor(persist.SealKey(19)))
	if err != nil {
		t.Fatal(err)
	}
	var identity [32]byte
	if aerr := dst.VMM.AdoptMigratedDomain(ckpt.Domain, identity, nil); aerr == nil {
		t.Fatal("adopting a domain with live local pages succeeded")
	}
	if aerr := dst.VMM.AdoptMigratedDomain(0, identity, nil); aerr == nil {
		t.Fatal("adopting domain 0 succeeded")
	}
	_ = cloak.DomainID(0)
}
