package migrate

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/sim"
)

// Capture quiesces domain d on the (paused) source machine and builds its
// sealed checkpoint. Must run from a migration hook (core.System.MigrateAt):
// the machine is then at a scheduler dispatch boundary, so no shim syscall
// is mid-flight and every thread's context is parked — the in-flight-drain
// half of quiescing comes for free from the baton scheduler, and the
// memory half is the same eager-encryption sweep the multi-shadow ablation
// uses. After the sweep the journal is checkpointed, so the journal table
// (the sealed truth about the domain's pages) is the checkpoint's page
// enumeration; ciphertext comes from guest memory for resident pages and
// from the journaled swap location — read through the fault-injectable
// disk on the machine's retry schedule — for swapped-out pages. A page
// whose ciphertext is unreachable travels with its unavailable state,
// classified by core.Locate exactly as crash recovery classifies it.
//
// Each page crosses the host once: its ciphertext is copied (or read off
// swap) straight into a buffer laid out as the wire blob, whose slots the
// checkpoint's page Data are, and Encode later seals the records into the
// same buffer. No Data aliases guest memory, so the domain touching a page
// after capture can never show plaintext through the checkpoint.
//
// Capture exports no plaintext and no keys: pages leave as ciphertext
// under the domain key plus sealed (IV, hash, version) records, and
// trapped threads leave as their saved CTCs (the genuine registers the
// kernel never saw). The source machine is not modified beyond the
// quiesce itself — if the subsequent transfer aborts, the domain simply
// keeps running with its pages encrypted, which any app-view touch
// decrypts back on demand.
func Capture(sys *core.System, d cloak.DomainID) (*Checkpoint, error) {
	if sys.Journal == nil {
		return nil, fmt.Errorf("%w: capture of domain %d", ErrNoJournal, d)
	}
	if d == 0 {
		return nil, fmt.Errorf("migrate: capture of domain 0 (uncloaked)")
	}
	if sys.VMM.Quarantined(d) {
		return nil, fmt.Errorf("%w: capture of domain %d", ErrQuarantined, d)
	}

	sys.VMM.EncryptAllPlaintext(d)
	sys.Journal.Checkpoint()

	identity, _ := sys.VMM.DomainIdentity(d)
	ckpt := &Checkpoint{
		Domain:   d,
		Identity: identity,
		Epoch:    sys.Journal.Epoch(),
		SrcVCPUs: len(sys.World.VCPUs()),
		Threads:  sys.VMM.DomainThreadStates(d),
	}

	// The journal table is the master enumeration: it is what the
	// destination re-seals, so a page the journal no longer tracks
	// (quota-wedged domain, raced delete) does not travel. The table and the
	// resident frames are both in PageID order, so one merged walk pairs
	// each entry with its frame and counts the pages that carry ciphertext.
	resident := sys.VMM.ResidentCiphertexts(d)
	all := sys.Journal.Entries()
	entries := all[:0]                    // filtered in place: the domain's sealed pages
	frames := make([][]byte, 0, len(all)) // entries[i]'s resident frame, or nil
	blobs, r := 0, 0
	for _, te := range all {
		if te.ID.Domain != d || !te.Entry.HasMeta {
			continue
		}
		for r < len(resident) && resident[r].ID.Less(te.ID) {
			r++
		}
		var frame []byte
		if r < len(resident) && resident[r].ID == te.ID {
			frame = resident[r].Data
		}
		if _, st := core.Locate(te.Entry); frame != nil || st == 0 {
			blobs++
		}
		entries = append(entries, te)
		frames = append(frames, frame)
	}

	// One buffer laid out as the wire blob: Encode seals the records into
	// its head, and each page's ciphertext is copied once, straight into
	// its slot in the tail. A page whose swap read fails takes no slot, so
	// the ciphertext section has no hole.
	recBytes := (2 + len(entries) + len(ckpt.Threads)) * RecordSize
	wire := make([]byte, recBytes+blobs*mach.PageSize)
	at := recBytes
	disk := sys.Kernel.SwapDisk()
	cpu := sys.World.CPU()
	ckpt.Pages = make([]PageRecord, 0, len(entries))
	for i, te := range entries {
		p := PageRecord{ID: te.ID, Meta: te.Entry.Meta}
		blk, st := core.Locate(te.Entry)
		switch {
		case frames[i] != nil:
			p.Data = wire[at : at+mach.PageSize : at+mach.PageSize]
			copy(p.Data, frames[i])
		case st != 0:
			p.State = st
		default:
			// Swapped out: pull the ciphertext back through the (fault-
			// injectable) swap device, retrying transient read failures on
			// the machine's one retry schedule. A failed read writes
			// nothing into the slot, which the next page then takes.
			slot := wire[at : at+mach.PageSize : at+mach.PageSize]
			var rerr error
			for attempt := 0; ; attempt++ {
				if rerr = disk.Read(blk, slot); rerr == nil || attempt == sim.RetryAttempts {
					break
				}
				cpu.ChargeAdd(sim.RetryBackoff(attempt), sim.CtrMigrateRetry, 1)
			}
			if rerr != nil {
				p.State = core.ReadError
			} else {
				p.Data = slot
			}
		}
		if p.Data != nil {
			at += mach.PageSize
		}
		cpu.ChargeAdd(0, sim.CtrMigrateCkptPage, 1)
		ckpt.Pages = append(ckpt.Pages, p)
	}
	ckpt.wire = wire[:at]
	return ckpt, nil
}
