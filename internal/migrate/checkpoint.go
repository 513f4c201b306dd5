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

	sys.VMM.EncryptAllPlaintext(d, "migration quiesce")
	sys.Journal.Checkpoint()

	identity, _ := sys.VMM.DomainIdentity(d)
	ckpt := &Checkpoint{
		Domain:   d,
		Identity: identity,
		Epoch:    sys.Journal.Epoch(),
		SrcVCPUs: len(sys.World.VCPUs()),
		Threads:  sys.VMM.DomainThreadStates(d),
	}

	// Resident ciphertext, keyed for the journal-entry walk below. The
	// journal table is the master enumeration: it is what the destination
	// re-seals, so a page the journal no longer tracks (quota-wedged
	// domain, raced delete) does not travel.
	resident := make(map[cloak.PageID][]byte)
	for _, rp := range sys.VMM.ResidentCiphertexts(d) {
		resident[rp.ID] = rp.Data
	}

	disk := sys.Kernel.SwapDisk()
	cpu := sys.World.CPU()
	buf := make([]byte, mach.BlockSize)
	for _, te := range sys.Journal.Entries() {
		if te.ID.Domain != d || !te.Entry.HasMeta {
			continue
		}
		p := PageRecord{ID: te.ID, Meta: te.Entry.Meta}
		blk, st := core.Locate(te.Entry)
		switch {
		case resident[te.ID] != nil:
			p.Data = resident[te.ID]
		case st != 0:
			p.State = st
		default:
			// Swapped out: pull the ciphertext back through the (fault-
			// injectable) swap device, retrying transient read failures on
			// the machine's one retry schedule.
			var rerr error
			for attempt := 0; ; attempt++ {
				if rerr = disk.Read(blk, buf); rerr == nil || attempt == sim.RetryAttempts {
					break
				}
				cpu.ChargeAdd(sim.RetryBackoff(attempt), sim.CtrMigrateRetry, 1)
			}
			if rerr != nil {
				p.State = core.ReadError
			} else {
				p.Data = make([]byte, mach.PageSize)
				copy(p.Data, buf)
			}
		}
		cpu.ChargeAdd(0, sim.CtrMigrateCkptPage, 1)
		ckpt.Pages = append(ckpt.Pages, p)
	}
	return ckpt, nil
}
