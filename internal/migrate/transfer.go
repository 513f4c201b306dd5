package migrate

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/fault"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// TransferStats accounts for one checkpoint's trip across the channel.
type TransferStats struct {
	// Frames is how many frames (sealed records + ciphertext blobs) were
	// delivered.
	Frames int
	// Retries counts lost/torn frames that were re-sent.
	Retries int
	// Corrupted counts frames delivered silently damaged by the channel
	// (detection happens at the destination, never here).
	Corrupted int
	// Bytes is the delivered payload size.
	Bytes int
}

// Transfer serializes ckpt under the source's migration key and moves it
// across the inter-machine channel frame by frame — each 128-byte sealed
// record and each ciphertext page is one fault opportunity at
// fault.SiteTransfer, charged at the channel's setup + per-byte cost on
// the source clock. Frames are delivered in place: the returned blob is the
// one Encode built, so with no channel fault it is exactly Encode's bytes,
// and a corrupted frame is damaged where it lies. For a checkpoint fresh
// from Capture that blob is the capture's own buffer, so a corrupted page
// shows in the checkpoint's page Data too.
//
// A lost (Fail) or torn (Torn) frame is re-sent after a sim-clock backoff
// on the machine's retry schedule; exhausting the budget aborts the whole
// transfer with ErrTransferAborted and nothing delivered — the source
// machine is unharmed and keeps running when the migration hook returns.
// A corrupted (Corrupt) frame is delivered silently damaged: the channel
// never detects anything, the destination's seals and hashes do.
func Transfer(sys *core.System, ckpt *Checkpoint) ([]byte, TransferStats, error) {
	var stats TransferStats
	blob := Encode(ckpt, SealKeyFor(persist.SealKey(sys.Seed())))
	// Frame boundaries: the record section is (header + pages + threads +
	// trailer) x RecordSize, the rest is whole ciphertext pages.
	recBytes := (2 + len(ckpt.Pages) + len(ckpt.Threads)) * RecordSize

	cpu := sys.World.CPU()
	cost := sys.World.Cost
	cpu.ChargeAdd(cost.TransferSetup, sim.CtrMigrateXfer, 0)

	off := 0
	for off < len(blob) {
		size := RecordSize
		if off >= recBytes {
			size = mach.PageSize
		}
		frame := blob[off : off+size]
		for attempt := 0; ; attempt++ {
			cpu.ChargeAdd(sim.Cycles(size)*cost.TransferPerByte, sim.CtrMigrateXfer, 0)
			kind, _ := cpu.InjectAt(fault.SiteTransfer)
			if kind == fault.None || kind == fault.Corrupt {
				if kind == fault.Corrupt {
					// Delivered, silently damaged. Detection belongs to the
					// destination's MAC/hash verification.
					sys.World.Fault.Corrupt(frame)
					stats.Corrupted++
				}
				break
			}
			// Fail: the frame vanished. Torn: a prefix arrived, then the
			// connection dropped — the partial frame is discarded and the
			// whole frame re-sent. Both consume a retry.
			if attempt == sim.RetryAttempts {
				return nil, stats, fmt.Errorf("%w: frame at byte %d lost %d times (%s)",
					ErrTransferAborted, off, attempt+1, kind)
			}
			stats.Retries++
			cpu.ChargeAdd(sim.RetryBackoff(attempt), sim.CtrMigrateRetry, 1)
		}
		stats.Frames++
		stats.Bytes += size
		cpu.ChargeAdd(0, sim.CtrMigrateXfer, 1)
		off += size
	}
	return blob, stats, nil
}

// Migrate captures domain d on src and transfers its sealed checkpoint,
// returning the blob as delivered (faults included) ready for Restore on
// another machine. The convenience wrapper for the common hook body.
func Migrate(src *core.System, d cloak.DomainID) ([]byte, TransferStats, error) {
	ckpt, err := Capture(src, d)
	if err != nil {
		return nil, TransferStats{}, err
	}
	return Transfer(src, ckpt)
}
