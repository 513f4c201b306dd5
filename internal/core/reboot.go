package core

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// ErrNoJournal is returned by Reboot when the crashed system never had a
// metadata journal: with no sealed persisted state there is nothing to
// recover from — by design, not by accident.
var ErrNoJournal = fmt.Errorf("core: reboot without a metadata journal: nothing to recover")

// RecoveryState classifies one page's post-reboot fate. Exactly one page
// state is ever "plaintext reachable": Recovered, and only after the
// ciphertext decrypted under the sealed metadata and verified against the
// sealed hash. Every other state is a typed unavailability.
type RecoveryState uint8

// Recovery states.
const (
	// Recovered: ciphertext found, decrypted, and verified against the
	// journaled (IV, hash, version) record.
	Recovered RecoveryState = iota + 1
	// NoLocation: valid metadata but no journaled ciphertext location —
	// the page only ever lived in RAM, which the crash destroyed.
	NoLocation
	// StaleLocation: the journaled location holds an older version than
	// the current metadata (the page was re-encrypted after its last
	// page-out and the fresh ciphertext never reached stable storage).
	StaleLocation
	// ReadError: the device refused to return the located sector.
	ReadError
	// IntegrityMismatch: the located sector exists but fails verification
	// (torn, corrupted, or substituted ciphertext).
	IntegrityMismatch
)

var recoveryStateNames = [...]string{
	"", "recovered", "no-location", "stale-location", "read-error", "integrity-mismatch",
}

// String implements fmt.Stringer.
func (s RecoveryState) String() string {
	if int(s) < len(recoveryStateNames) && s != 0 {
		return recoveryStateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// PageOutcome is one previously-cloaked page's recovery result.
type PageOutcome struct {
	ID    cloak.PageID
	State RecoveryState
	// Data is the verified plaintext, only when State == Recovered.
	Data []byte
	// Err is the typed cause for unavailable states (nil for Recovered and
	// NoLocation/StaleLocation, which are states rather than failures).
	Err error
}

// RecoveryReport accounts for everything the reboot found — and everything
// it refused.
type RecoveryReport struct {
	// CrashCycle is the simulated cycle at which the old machine stopped.
	CrashCycle sim.Cycles
	// Anchored reports whether a committed superblock verified.
	Anchored bool
	// Epoch is the recovered journal epoch.
	Epoch uint32
	// Replay is the raw journal replay result, including every typed
	// Rejection (bad MAC, stale epoch, sequence gap, rollback).
	Replay *persist.Result
	// PageTally holds the per-page outcomes in deterministic PageID order.
	PageTally
	// ReplayCycles is the simulated time the new machine spent replaying
	// and verifying (its clock started at zero on power-on).
	ReplayCycles sim.Cycles
}

// RollbackRejections counts replayed records refused by the freshness
// (anti-rollback) rule; any nonzero value means someone tried to feed the
// VMM old state.
func (r *RecoveryReport) RollbackRejections() int {
	return r.Replay.RejectedBy(persist.RejectRollback)
}

// PageTally is the per-page account of a recovery: crash recovery and
// migration restore both fill one.
type PageTally struct {
	// Pages lists per-page outcomes in the order they were verified.
	Pages []PageOutcome
	// Recovered / Unavailable tally the page outcomes.
	Recovered   int
	Unavailable int
}

// Verify records one page's fate. A page in state 0 has ciphertext: hv
// decrypts and verifies it against the sealed meta, and the page becomes
// Recovered or IntegrityMismatch. A page in any other state is recorded as
// is, with err as its cause. Plaintext appears only in the Data of a
// Recovered outcome.
func (t *PageTally) Verify(hv *vmm.VMM, id cloak.PageID, meta cloak.Meta, ciphertext []byte, st RecoveryState, err error) {
	out := PageOutcome{ID: id, State: st, Err: err}
	if st == 0 {
		if data, derr := hv.RecoverPage(id, meta, ciphertext); derr != nil {
			out.State, out.Err = IntegrityMismatch, derr
		} else {
			out.State, out.Data = Recovered, data
		}
	}
	if out.State == Recovered {
		t.Recovered++
	} else {
		t.Unavailable++
	}
	t.Pages = append(t.Pages, out)
}

// Locate classifies a journaled page: it returns the swap block holding the
// page's current ciphertext (state 0), or NoLocation when the journal knows
// no usable location and StaleLocation when the located ciphertext is older
// than the sealed metadata. Reboot and migration capture both classify
// through it.
func Locate(e persist.Entry) (block uint64, st RecoveryState) {
	switch {
	case !e.HasMeta || !e.HasLoc || e.Dev != persist.DevSwap:
		return 0, NoLocation
	case e.LocVersion != e.Meta.Version:
		return 0, StaleLocation
	}
	return e.Block, 0
}

// Reboot powers on a fresh machine over the disk that survived prev's
// crash. It replays the sealed metadata journal (refusing torn, corrupt,
// stale, and rolled-back records with typed errors — never a panic),
// classifies every previously-cloaked page as recovered-and-verified or
// typed-unavailable, re-seals the surviving state under a fresh journal
// epoch, and returns the new system ready to run new workloads. Plaintext
// appears in exactly one place: PageOutcome.Data of pages whose ciphertext
// decrypted and verified against the sealed hash.
//
// The new machine reuses prev's configuration (and therefore its seed: the
// journal sealing key and domain key hierarchy must match for recovery to
// verify anything) with the crash deadline cleared.
func Reboot(prev *System) (*System, *RecoveryReport, error) {
	if prev.Journal == nil {
		return nil, nil, ErrNoJournal
	}
	cfg := prev.cfg
	cfg.CrashAt = 0
	world := newWorld(cfg)

	// The swap device (pager slots + journal tail) is the surviving
	// medium; it re-homes to the new world so recovery I/O charges the new
	// machine's clock. Guest RAM and the old FS device did not survive.
	disk := prev.Kernel.SwapDisk()
	if err := disk.Rehome(world); err != nil {
		// Unreachable for a genuinely crashed machine (a crashed world has
		// no schedule left to abandon); reachable only if a caller reboots a
		// live faulted machine — refuse rather than splice the schedule.
		return nil, nil, err
	}

	hv, err := vmm.New(world, vmm.Config{GuestPages: cfg.MemoryPages, Options: cfg.VMM})
	if err != nil {
		return nil, nil, err
	}

	key := persist.SealKey(cfg.Seed)
	base, blocks := prev.Journal.Range()
	rep := persist.Replay(world, disk, base, blocks, key)

	report := &RecoveryReport{
		CrashCycle: prev.World.Now(),
		Anchored:   rep.Anchored,
		Epoch:      rep.Epoch,
		Replay:     rep,
	}
	buf := make([]byte, mach.BlockSize)
	for _, id := range rep.PageIDs() {
		e := rep.Table[id]
		blk, st := Locate(e)
		var rerr error
		if st == 0 {
			if rerr = disk.ReadRetry(blk, buf); rerr != nil {
				st = ReadError
			}
		}
		report.Verify(hv, id, e.Meta, buf, st, rerr)
	}
	report.ReplayCycles = world.Now()

	// Re-seal: the surviving table is committed under a strictly fresher
	// epoch, so a second crash recovers from here — and a rollback to the
	// pre-crash superblock is detectably stale.
	j, jerr := persist.Resume(world, disk, base, blocks, key, *cfg.Persist, rep)
	if jerr != nil {
		return nil, nil, jerr
	}
	hv.AttachJournal(j)

	sys := boot(cfg, world, hv, disk, j)
	sys.Recovery = report
	return sys, report, nil
}
