package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/fault"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// crashMarker is the plaintext pattern the crash workloads stamp into every
// cloaked page: recovery must reproduce it exactly, and no surviving disk
// block may ever contain it.
const crashMarker = "E14-core-crash-marker"

// swapHeavyApp allocates more cloaked pages than the machine has RAM and
// churns them, so a mid-run crash catches a large fraction of the working
// set encrypted on the swap device.
func swapHeavyApp(pages int) Program {
	return func(e Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			e.Exit(1)
		}
		for i := 0; i < pages; i++ {
			va := base + Addr(i*PageSize)
			e.WriteMem(va, []byte(crashMarker))
			e.Store64(va+64, uint64(i))
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < pages; i++ {
				_ = e.Load64(base + Addr(i*PageSize) + 64)
			}
		}
		e.Exit(0)
	}
}

func crashConfig(seed uint64) Config {
	return Config{
		MemoryPages: 96,
		Seed:        seed,
		Persist:     &persist.Options{CheckpointEvery: 16},
	}
}

// probeTotal runs the workload to completion (no crash) and reports the
// total simulated run length, so crash tests can aim deadlines mid-run.
func probeTotal(t *testing.T, cfg Config, pages int) sim.Cycles {
	t.Helper()
	cfg.CrashAt = 0
	sys := NewSystem(cfg)
	sys.Register("app", swapHeavyApp(pages))
	if _, err := sys.Spawn("app", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Crashed() {
		t.Fatal("probe run crashed without a deadline")
	}
	return sys.Now()
}

// crashAndReboot runs the workload to the given deadline and reboots.
func crashAndReboot(t *testing.T, cfg Config, pages int) (*System, *System, *RecoveryReport) {
	t.Helper()
	sys := NewSystem(cfg)
	sys.Register("app", swapHeavyApp(pages))
	if _, err := sys.Spawn("app", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !sys.Crashed() {
		t.Fatal("machine did not crash at the armed deadline")
	}
	if sys.Now() != cfg.CrashAt {
		t.Fatalf("crashed at cycle %d, want exactly %d", sys.Now(), cfg.CrashAt)
	}
	sys2, rep, err := Reboot(sys)
	if err != nil {
		t.Fatalf("Reboot: %v", err)
	}
	return sys, sys2, rep
}

func TestCrashRebootRecoversVerifiedPages(t *testing.T) {
	const pages = 160
	cfg := crashConfig(7)
	cfg.CrashAt = probeTotal(t, cfg, pages) / 2
	old, sys2, rep := crashAndReboot(t, cfg, pages)

	if !rep.Anchored {
		t.Fatalf("journal not anchored after mid-run crash: %v", rep.Replay.Rejections)
	}
	if rep.Recovered == 0 {
		t.Fatal("mid-run crash of a swap-heavy workload recovered nothing")
	}
	if rep.Recovered+rep.Unavailable != len(rep.Pages) {
		t.Fatalf("tallies %d+%d != %d pages", rep.Recovered, rep.Unavailable, len(rep.Pages))
	}
	for _, p := range rep.Pages {
		switch p.State {
		case Recovered:
			if !bytes.HasPrefix(p.Data, []byte(crashMarker)) {
				t.Fatalf("recovered page %v lacks the workload marker", p.ID)
			}
			if idx := binary.LittleEndian.Uint64(p.Data[64:72]); idx >= pages {
				t.Fatalf("recovered page %v carries stamp %d, outside the workload", p.ID, idx)
			}
		case NoLocation, StaleLocation, ReadError, IntegrityMismatch:
			if p.Data != nil {
				t.Fatalf("unavailable page %v (%v) carries plaintext", p.ID, p.State)
			}
		default:
			t.Fatalf("page %v has untyped state %v", p.ID, p.State)
		}
	}
	// Secrecy: the surviving medium holds only ciphertext and sealed
	// metadata — the plaintext marker must appear nowhere on it.
	d := old.Kernel.SwapDisk()
	for b := uint64(0); b < d.NumBlocks(); b++ {
		if img := d.PokeRaw(b); img != nil && bytes.Contains(img, []byte(crashMarker)) {
			t.Fatalf("plaintext marker found on surviving disk block %d", b)
		}
	}
	// Freshness: nothing tried to roll versions back.
	if n := rep.RollbackRejections(); n != 0 {
		t.Fatalf("%d rollback rejections on an honest crash", n)
	}
	// The rebooted machine must run fresh cloaked work.
	ran := false
	sys2.Register("post", func(e Env) {
		va, _ := e.Alloc(1)
		e.Store64(va, 42)
		ran = e.Load64(va) == 42
		e.Exit(0)
	})
	if _, err := sys2.Spawn("post", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys2.Run()
	if !ran || sys2.Crashed() {
		t.Fatal("rebooted machine failed to run new cloaked work")
	}
}

// TestCrashRebootDeterministic pins that one (seed, CrashAt) pair names one
// exact crashed world and one exact recovery.
func TestCrashRebootDeterministic(t *testing.T) {
	const pages = 160
	cfg := crashConfig(13)
	cfg.CrashAt = probeTotal(t, cfg, pages) / 3

	summarize := func() string {
		old, _, rep := crashAndReboot(t, cfg, pages)
		var b bytes.Buffer
		fmt.Fprintf(&b, "crash=%d epoch=%d rec=%d unav=%d rej=%d replay=%d\n",
			rep.CrashCycle, rep.Epoch, rep.Recovered, rep.Unavailable,
			len(rep.Replay.Rejections), rep.ReplayCycles)
		for _, p := range rep.Pages {
			fmt.Fprintf(&b, "%v %v\n", p.ID, p.State)
			b.Write(p.Data)
		}
		d := old.Kernel.SwapDisk()
		for blk := uint64(0); blk < d.NumBlocks(); blk++ {
			b.Write(d.PokeRaw(blk))
		}
		return b.String()
	}
	if a, c := summarize(), summarize(); a != c {
		t.Fatal("same (seed, CrashAt) produced different crashed worlds or recoveries")
	}
}

func TestRebootWithoutJournalIsTyped(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 128})
	sys.Run()
	if _, _, err := Reboot(sys); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("Reboot without journal returned %v, want ErrNoJournal", err)
	}
}

// TestCrashWithTornWritesRejectsTyped composes disk fault injection with a
// whole-machine crash: torn journal blocks must surface as typed replay
// rejections (never a panic), and everything that does recover must still
// verify.
func TestCrashWithTornWritesRejectsTyped(t *testing.T) {
	const pages = 160
	cfg := crashConfig(11)
	plan := &fault.Plan{}
	plan.Rates[fault.SiteDiskWrite] = fault.Rate{TornPerMille: 250, Max: 8}
	cfg.Fault = plan
	cfg.CrashAt = probeTotal(t, cfg, pages) / 2
	_, _, rep := crashAndReboot(t, cfg, pages)

	for _, rj := range rep.Replay.Rejections {
		if rj.Reason.String() == "" {
			t.Fatalf("rejection with blank reason: %+v", rj)
		}
	}
	for _, p := range rep.Pages {
		if p.State == Recovered && !bytes.HasPrefix(p.Data, []byte(crashMarker)) {
			t.Fatalf("recovered page %v failed to reproduce the marker under faults", p.ID)
		}
		if p.State != Recovered && p.Data != nil {
			t.Fatalf("unavailable page %v leaked data under faults", p.ID)
		}
	}
}

// TestCrashDuringQuiesceContained: a deadline equal to the clean run's
// total length fires on the final charge — inside the shutdown checkpoint,
// after the guest kernel already stopped. Run must contain that unwind like
// any other crash instead of panicking out to the caller, and the reboot
// must still anchor (the A/B superblock keeps the previous epoch valid
// through a mid-checkpoint power cut).
func TestCrashDuringQuiesceContained(t *testing.T) {
	const pages = 40
	cfg := crashConfig(3)
	cfg.CrashAt = probeTotal(t, cfg, pages)
	sys := NewSystem(cfg)
	sys.Register("app", swapHeavyApp(pages))
	if _, err := sys.Spawn("app", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run() // must not panic
	if !sys.Crashed() {
		t.Fatal("deadline on the final quiesce charge did not register as a crash")
	}
	_, rep, err := Reboot(sys)
	if err != nil {
		t.Fatalf("Reboot after quiesce crash: %v", err)
	}
	if !rep.Anchored {
		t.Fatal("mid-quiesce crash unanchored the journal")
	}
}

// TestCleanExitErasesJournal: when every domain exits cleanly, teardown
// drops its journal entries — after the quiesce checkpoint, a reboot finds a
// valid anchor and an empty table. That is cryptographic erasure surviving a
// power cycle: exit means gone, even from the recovery path.
func TestCleanExitErasesJournal(t *testing.T) {
	const pages = 160
	cfg := crashConfig(5)
	sys := NewSystem(cfg)
	sys.Register("app", swapHeavyApp(pages))
	if _, err := sys.Spawn("app", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Crashed() {
		t.Fatal("clean run crashed")
	}
	_, rep, err := Reboot(sys)
	if err != nil {
		t.Fatalf("Reboot after clean shutdown: %v", err)
	}
	if !rep.Anchored {
		t.Fatal("quiesced journal did not anchor")
	}
	if len(rep.Pages) != 0 {
		t.Fatalf("%d pages recoverable after clean domain teardown, want 0", len(rep.Pages))
	}
}

// TestLocate: only a current swap location yields a block to read; every
// other journaled shape classifies as a typed unavailable state.
func TestLocate(t *testing.T) {
	meta := cloak.Meta{Version: 3}
	for _, tc := range []struct {
		name      string
		e         persist.Entry
		wantBlock uint64
		want      RecoveryState
	}{
		{"no-metadata", persist.Entry{Dev: persist.DevSwap, Block: 42, LocVersion: 3, HasLoc: true}, 0, NoLocation},
		{"no-location", persist.Entry{Meta: meta, HasMeta: true}, 0, NoLocation},
		{"non-swap-device", persist.Entry{Meta: meta, HasMeta: true, Dev: persist.DevSwap + 1, Block: 42, LocVersion: 3, HasLoc: true}, 0, NoLocation},
		{"one-version-behind", persist.Entry{Meta: meta, HasMeta: true, Dev: persist.DevSwap, Block: 42, LocVersion: 2, HasLoc: true}, 0, StaleLocation},
		{"current-swap", persist.Entry{Meta: meta, HasMeta: true, Dev: persist.DevSwap, Block: 42, LocVersion: 3, HasLoc: true}, 42, 0},
	} {
		blk, st := Locate(tc.e)
		if blk != tc.wantBlock || st != tc.want {
			t.Errorf("%s: Locate = (%d, %v), want (%d, %v)", tc.name, blk, st, tc.wantBlock, tc.want)
		}
	}
}
