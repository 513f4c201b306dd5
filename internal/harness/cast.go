package harness

import (
	"bytes"

	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
)

// The cast of the hostile-machine sweeps. E13 (faults), E14 (crashes), E16
// (migration) and E17 (the adversarial kernel) each boot one machine per
// scenario row; the parts more than one of them boots are defined here,
// once.

// scenarioSeed mixes a scenario's name into the run seed, so scenarios with
// identical shapes do not share a fault or attack schedule.
func scenarioSeed(opts Options, name string) uint64 {
	seed := opts.seed()
	for _, c := range []byte(name) {
		seed = seed*1099511628211 + uint64(c)
	}
	return seed
}

// journaledConfig is the machine E14 and E16 boot: small RAM so the victim
// swaps hard, and a metadata journal checkpointing often enough that
// mid-checkpoint crash points exist even at quick scale. Migration needs the
// sealed epoch anchor and entry table the journal provides.
func journaledConfig(o Options) core.Config {
	return core.Config{
		MemoryPages: 96,
		Seed:        o.seed(),
		VCPUs:       o.VCPUs,
		Persist:     &persist.Options{CheckpointEvery: 16},
	}
}

// swapVictim stamps every page with secret plus its index, then re-reads
// the whole set rounds times, so page-outs (and the journal records that
// locate them) keep flowing. A wrong stamp is silent corruption: it sets
// *corrupted and the victim stops. A clean finish sets *done.
func swapVictim(secret []byte, pages, rounds int, corrupted, done *bool) core.Program {
	return func(e core.Env) {
		base := must1(e.Alloc(pages))
		for i := 0; i < pages; i++ {
			va := base + core.Addr(i*core.PageSize)
			e.WriteMem(va, secret)
			e.Store64(va+64, uint64(i))
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < pages; i++ {
				va := base + core.Addr(i*core.PageSize)
				if e.Load64(va+64) != uint64(i) {
					*corrupted = true
					return
				}
			}
		}
		*done = true
		e.Exit(0)
	}
}

// spawnCast registers and spawns the three-process workload of E13 and
// E17, in this order: the cloaked victim, a cloaked sibling, and a native
// worker. The sibling stamps its pages with stamp, then stays alive across
// the victim's whole run, touching and re-checking them so they stay
// resident; it sets *siblingOK only if every check passed. The worker
// computes and yields for as long as the sibling lives.
func spawnCast(sys *core.System, o Options, victim core.Program, stamp uint64, sibPages int, siblingOK *bool) {
	steps := o.scale(40, 25)
	sys.Register("victim", victim)
	sys.Register("sibling", func(e core.Env) {
		base := must1(e.Sbrk(int64(sibPages)))
		for i := 0; i < sibPages; i++ {
			e.Store64(base+core.Addr(i*core.PageSize), stamp+uint64(i))
		}
		for s := 0; s < steps; s++ {
			e.Compute(4000)
			for i := 0; i < sibPages; i++ {
				if e.Load64(base+core.Addr(i*core.PageSize)) != stamp+uint64(i) {
					return // corrupted: leave siblingOK false
				}
			}
			e.Yield()
		}
		*siblingOK = true
		e.Exit(0)
	})
	sys.Register("worker", func(e core.Env) {
		for s := 0; s < steps; s++ {
			e.Compute(3000)
			e.Yield()
		}
		e.Exit(0)
	})
	mustSpawn(sys, "victim")
	mustSpawn(sys, "sibling")
	if _, err := sys.Spawn("worker"); err != nil {
		panic(err)
	}
}

// onDisks reports whether pat appears anywhere on the machine's swap disk
// or file-system disk.
func onDisks(sys *core.System, pat []byte) bool {
	return scanDisk(sys.Kernel.SwapDisk(), pat) || scanDisk(sys.Kernel.FS().Disk(), pat)
}

// scanDisk sweeps every block for pat. It reads through PokeRaw (the
// aliasing view) strictly read-only: Peek copies each block, and a
// whole-device sweep would churn one allocation per block for nothing.
func scanDisk(d *mach.Disk, pat []byte) bool {
	for b := uint64(0); b < d.NumBlocks(); b++ {
		if bytes.Contains(d.PokeRaw(b), pat) {
			return true
		}
	}
	return false
}
