package vmm

import (
	"fmt"
	"slices"

	"overshadow/internal/cloak"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// This file implements the hypervisor-side introspection monitor: VMI-style
// kernel-object watching from outside the guest (PAPERS.md: low-overhead
// kernel object monitoring). The
// monitor periodically asks the guest kernel to enumerate its scheduler and
// memory-map objects ("claims"), then cross-checks every claim against the
// VMM's own ground truth — live domains, registered cloaked regions,
// quarantine state. A kernel that hides a cloaked task, keeps a phantom task
// in a dead domain, or drops a cloaked region from its tables produces a
// typed, audited divergence — never trusted silently.
//
// The monitor is off by default: unattached machines make no scans, charge
// no counters, and keep every export byte-identical.

// TaskClaim is the guest kernel's claim about one schedulable task.
type TaskClaim struct {
	Pid    uint64
	Domain cloak.DomainID // 0 = uncloaked task
	State  string         // "running", "runnable", "blocked"
}

// RegionClaim is the guest kernel's claim about one virtual memory area.
type RegionClaim struct {
	AS      ASID
	BaseVPN uint64
	Pages   uint64
}

// IntrospectClaims is one full kernel-object snapshot as the kernel presents
// it. A lying kernel mutates the snapshot before handing it over; the
// monitor compares whatever it gets against VMM ground truth.
type IntrospectClaims struct {
	Tasks   []TaskClaim
	Regions []RegionClaim
}

// IntrospectSource enumerates guest kernel objects for the monitor. The
// guest kernel implements it; the interface lives here so the VMM never
// imports the guest.
type IntrospectSource interface {
	IntrospectClaims() *IntrospectClaims
}

// Divergence classes the monitor reports.
const (
	// DivergeHiddenTask: a live, unquarantined protection domain has no
	// claimed task — the kernel is hiding a cloaked process from its own
	// run-queue accounting (rootkit-style unlinking).
	DivergeHiddenTask = "hidden-task"
	// DivergePhantomTask: a claimed task names a domain the VMM knows is
	// quarantined or destroyed — scheduler state for a corpse.
	DivergePhantomTask = "phantom-task"
	// DivergeUnclaimedRegion: a registered cloaked region has no
	// intersecting VMA claim in its address space — the kernel unlinked a
	// cloaked mapping from its region tables.
	DivergeUnclaimedRegion = "unclaimed-region"
)

// Introspector is the attached monitor instance. It scans every Nth shadow
// context switch (a deterministic, simulation-time cadence: context switches
// are part of the machine schedule, not host time).
type Introspector struct {
	v        *VMM
	src      IntrospectSource
	every    int
	switches int

	scans uint64
	seen  map[string]bool // class|domain -> already audited
}

// AttachIntrospector arms the monitor: scan src every `every` shadow context
// switches (minimum 1). Attaching is an explicit opt-in; the default machine
// never scans.
func (v *VMM) AttachIntrospector(src IntrospectSource, every int) *Introspector {
	if every < 1 {
		every = 1
	}
	in := &Introspector{v: v, src: src, every: every, seen: make(map[string]bool)}
	v.introspector = in
	return in
}

// tick advances the scan cadence; called from SwitchContext on real context
// switches only (same-context switches are free and don't count).
func (in *Introspector) tick() {
	in.switches++
	if in.switches >= in.every {
		in.switches = 0
		in.Scan()
	}
}

// Scan performs one introspection pass: pull the kernel's claims and
// classify divergence against ground truth. Runs on the executing vCPU under
// the baton, like every VMM entry path.
func (in *Introspector) Scan() {
	v := in.v
	c := v.cpu()
	in.scans++
	c.ChargeAdd(0, sim.CtrIntrospectScan, 1)
	c.Emit(obs.KindIntrospect, "scan", in.scans)

	claims := in.src.IntrospectClaims()

	// Ground truth: live (unquarantined) domains, in ID order.
	// The scan runs every Nth context switch, not per-switch: its transient
	// allocations are amortized far below the shadow-translation hot path.
	domains := slices.DeleteFunc(v.boundDomains(),
		func(d cloak.DomainID) bool { return v.quarantined[d] })

	claimedDomains := make(map[cloak.DomainID]int)
	for _, t := range claims.Tasks {
		if t.Domain != 0 {
			claimedDomains[t.Domain]++
		}
	}

	// 1. Hidden task: a live domain the kernel claims no task for.
	for _, d := range domains {
		if claimedDomains[d] == 0 {
			detail := fmt.Sprintf("domain %d live in VMM, no task claimed by kernel", d)
			in.diverge(DivergeHiddenTask, d, detail)
		}
	}

	// 2. Phantom task: a claim naming a quarantined or destroyed domain.
	for _, t := range claims.Tasks {
		if t.Domain == 0 {
			continue
		}
		if v.quarantined[t.Domain] {
			detail := fmt.Sprintf("kernel claims pid %d in quarantined domain %d", t.Pid, t.Domain)
			in.diverge(DivergePhantomTask, t.Domain, detail)
		} else if _, ok := slices.BinarySearch(domains, t.Domain); !ok {
			detail := fmt.Sprintf("kernel claims pid %d in destroyed domain %d", t.Pid, t.Domain)
			in.diverge(DivergePhantomTask, t.Domain, detail)
		}
	}

	// 3. Unclaimed cloaked region: a registered cloaked region with no
	// intersecting VMA claim for its address space. Zero-length VMA claims
	// (an empty heap) still anchor their base page.
	for _, d := range domains {
		for _, as := range v.spaces {
			if as.domain != d {
				continue
			}
			for _, r := range as.regions {
				if !r.Cloaked {
					continue
				}
				covered := false
				for _, cl := range claims.Regions {
					if cl.AS != as.id {
						continue
					}
					pages := cl.Pages
					if pages == 0 {
						pages = 1
					}
					if cl.BaseVPN < r.BaseVPN+r.Pages && r.BaseVPN < cl.BaseVPN+pages {
						covered = true
						break
					}
				}
				if !covered {
					detail := fmt.Sprintf("cloaked region vpn=%d+%d of as %d unclaimed by kernel", r.BaseVPN, r.Pages, as.id)
					in.diverge(DivergeUnclaimedRegion, d, detail)
				}
			}
		}
	}
}

// diverge records one divergence occurrence; the first occurrence per
// (class, domain) is logged to the audit trail so a persistent lie doesn't
// flood the event log on every scan.
func (in *Introspector) diverge(class string, d cloak.DomainID, detail string) {
	v := in.v
	v.cpu().ChargeAdd(0, sim.CtrIntrospectDiverge, 1)
	key := fmt.Sprintf("%s|%d", class, d)
	if in.seen[key] {
		return
	}
	in.seen[key] = true
	msg := class + ": " + detail
	v.logEvent(Event{Kind: EventIntrospectDiverge, Domain: d, Detail: msg})
}
