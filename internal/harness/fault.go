package harness

import (
	"bytes"
	"strings"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/fault"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// E13: the fault sweep. Each scenario boots a machine with one deterministic
// fault plan active and a three-process workload — a swap-heavy cloaked
// victim, a small cloaked sibling, and a native worker — then checks the
// robustness contract from the failure model:
//
//   - injected violations quarantine only the offending domain (the sibling
//     and the rest of the machine finish their work);
//   - quarantine reclaims everything the VMM held for the domain (frames,
//     metadata, CTCs);
//   - no fault mode ever leaks cloaked plaintext to the disks;
//   - transient faults degrade gracefully (retries absorb them) instead of
//     failing the machine.
//
// Everything in the table derives from simulated state only, so rows are
// byte-identical for any -shards value at a fixed seed.

// e13secret is the plaintext marker the victim plants in every cloaked
// page; the leak scan looks for its prefix in raw disk blocks.
var e13secret = []byte("E13-FAULT-SECRET-0123456789abcdef")

// e13sibling is the sibling's page stamp (verified after the storm).
const e13sibling = uint64(0x51B11D00D0000000)

// faultScenario names one fault plan plus the outcome the failure model
// predicts for it (the shape test asserts the expectations; the table just
// reports).
type faultScenario struct {
	name string
	plan fault.Plan
	// wantQuarantine: the plan forges or corrupts protected state, so the
	// victim's domain must end up quarantined.
	wantQuarantine bool
	// wantVictimDone: the plan injects only transient/graceful faults, so
	// retry and abort paths must carry the victim to completion.
	wantVictimDone bool
}

func onesite(site fault.Site, r fault.Rate) fault.Plan {
	var p fault.Plan
	p.Rates[site] = r
	return p
}

// e13scenarios is the sweep. Max caps are chosen against the retry budgets:
// the guest page-in path retries a read 3 times and the shim retries
// transient hypercalls 4 times, so Max 2 (resp. 3) faults can never produce
// enough consecutive failures to turn a transient scenario fatal.
var e13scenarios = []faultScenario{
	{
		name:           "disk-read-fail",
		plan:           onesite(fault.SiteDiskRead, fault.Rate{FailPerMille: 150, Max: 2}),
		wantVictimDone: true,
	},
	{
		name:           "disk-write-torn",
		plan:           onesite(fault.SiteDiskWrite, fault.Rate{TornPerMille: 80, Max: 3}),
		wantVictimDone: true, // torn page-outs abort and the page stays resident
	},
	{
		name:           "disk-write-corrupt",
		plan:           onesite(fault.SiteDiskWrite, fault.Rate{CorruptPerMille: 60, Max: 3}),
		wantQuarantine: true,
	},
	{
		name:           "swap-in-corrupt",
		plan:           onesite(fault.SiteSwapIn, fault.Rate{CorruptPerMille: 80, Max: 3}),
		wantQuarantine: true,
	},
	{
		name:           "hypercall-transient",
		plan:           onesite(fault.SiteHypercall, fault.Rate{FailPerMille: 300, Max: 3}),
		wantVictimDone: true, // shim retry-with-backoff absorbs every one
	},
	{
		name:           "meta-tamper",
		plan:           onesite(fault.SiteMetaTamper, fault.Rate{CorruptPerMille: 25, Max: 2}),
		wantQuarantine: true,
	},
	{
		name:           "forced-integrity",
		plan:           onesite(fault.SiteIntegrity, fault.Rate{FailPerMille: 25, Max: 1}),
		wantQuarantine: true,
	},
	{
		name: "mixed-storm",
		plan: func() fault.Plan {
			var p fault.Plan
			p.Rates[fault.SiteDiskRead] = fault.Rate{FailPerMille: 60, Max: 2}
			p.Rates[fault.SiteSwapOut] = fault.Rate{FailPerMille: 50, Max: 2}
			p.Rates[fault.SiteSwapIn] = fault.Rate{CorruptPerMille: 50, Max: 2}
			p.Rates[fault.SiteHypercall] = fault.Rate{FailPerMille: 120, Max: 3}
			return p
		}(),
		wantQuarantine: true,
	},
}

// faultOutcome is one scenario's observed result.
type faultOutcome struct {
	name        string
	faults      int
	retries     uint64
	quarantines int
	victimDone  bool
	siblingOK   bool
	leakFree    bool
	residueOK   bool
	// retryLat is the scenario's shim retry-latency histogram (first try
	// through final outcome, backoff included); retryDropped is the
	// scenario trace ring's dropped-span count.
	retryLat     *obs.Histogram
	retryDropped uint64
}

// RunE13 sweeps the fault scenarios; each builds its own system, so each
// runs as one pool job.
func RunE13(opts Options) *Table {
	outcomes := sweep(opts, e13scenarios, runFaultScenario)
	t := &Table{
		ID:      "E13",
		Title:   "Fault sweep: injection, quarantine containment, graceful degradation",
		Columns: []string{"faults injected", "shim retries", "quarantines", "victim done", "sibling intact", "leak-free", "residue-free"},
	}
	retry := &obs.Histogram{}
	var dropped uint64
	for _, o := range outcomes {
		t.AddRow(o.name, float64(o.faults), float64(o.retries), float64(o.quarantines),
			b2f(o.victimDone), b2f(o.siblingOK), b2f(o.leakFree), b2f(o.residueOK))
		// Scenario order is fixed, and histogram merge is order-independent
		// anyway, so the attached histogram is byte-identical at any -shards.
		retry.Merge(o.retryLat)
		dropped += o.retryDropped
	}
	t.AddHist("shim retry latency (cycles)", retry, dropped)
	t.Note("containment holds if 'leak-free' and 'residue-free' are 1 on every row")
	t.Note("quarantine kills only the faulted domain; transient rows finish with 'victim done' = 1")
	t.Note("under mixed-storm any domain may take its own fault, so 'sibling intact' can drop there; single-site rows keep it at 1")
	return t
}

// runFaultScenario boots one faulty machine and runs the workload.
func runFaultScenario(opts Options, sc faultScenario) faultOutcome {
	o := faultOutcome{name: sc.name}
	plan := sc.plan
	sys := opts.boot(core.Config{MemoryPages: 96, Seed: scenarioSeed(opts, sc.name), VCPUs: opts.VCPUs, Fault: &plan},
		"fault/"+sc.name)
	prof := sys.World.Profile()
	if prof == nil {
		prof = sys.World.EnableProfile() // the retry histogram needs spans even unobserved
	}

	victimPages := opts.scale(160, 120)
	rounds := opts.scale(3, 2)
	churn := opts.scale(12, 8)

	victim := func(e core.Env) {
		// Phase 1: hypercall churn (alloc/free of cloaked mappings) — the
		// surface transient hypercall faults hit.
		for i := 0; i < churn; i++ {
			b := must1(e.Alloc(2))
			e.Store64(b, uint64(i))
			if err := e.Free(b); err != nil {
				return
			}
		}
		// Phase 2: swap pressure over cloaked pages carrying the secret.
		base := must1(e.Alloc(victimPages))
		for round := 0; round < rounds; round++ {
			for i := 0; i < victimPages; i++ {
				va := base + core.Addr(i*core.PageSize)
				e.WriteMem(va, e13secret)
				e.Store64(va+64, uint64(i)<<8|uint64(round))
			}
			got := make([]byte, len(e13secret))
			for i := 0; i < victimPages; i++ {
				va := base + core.Addr(i*core.PageSize)
				e.ReadMem(va, got)
				if !bytes.Equal(got, e13secret) || e.Load64(va+64) != uint64(i)<<8|uint64(round) {
					// Silent corruption of cloaked data: never acceptable.
					// Leave victimDone false and bail.
					return
				}
			}
		}
		o.victimDone = true
		e.Exit(0)
	}
	spawnCast(sys, opts, victim, e13sibling, 4, &o.siblingOK)
	sys.Run()

	if sys.World.Fault != nil {
		o.faults = sys.World.Fault.Total()
	}
	o.retries = sys.Stats().Get(sim.CtrShimRetry)
	o.retryLat = prof.HistByKind(obs.KindRetry)
	o.retryDropped = sys.World.Tracer.Dropped()

	// Count containment events and collect the quarantined domains.
	domains := map[cloak.DomainID]bool{}
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventQuarantine && strings.HasPrefix(ev.Detail, "contained") {
			o.quarantines++
			domains[ev.Domain] = true
		}
	}
	// Full reclamation: the VMM must hold nothing for a quarantined domain.
	o.residueOK = true
	for d := range domains {
		pages, metas, ctcs := sys.VMM.QuarantineResidue(d)
		if pages != 0 || metas != 0 || ctcs != 0 || !sys.VMM.Quarantined(d) {
			o.residueOK = false
		}
	}
	// Privacy: no plaintext marker on either disk, whatever was injected.
	o.leakFree = !onDisks(sys, e13secret[:8])
	return o
}
