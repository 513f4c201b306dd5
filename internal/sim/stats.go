package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Counter names every event class the machine records. Keeping these as
// typed constants (rather than free-form strings at call sites) makes the
// experiment harness robust against typos.
type Counter string

// Counters recorded across the stack.
const (
	CtrMemAccess        Counter = "mem.access"
	CtrTLBHit           Counter = "tlb.hit"
	CtrTLBMiss          Counter = "tlb.miss"
	CtrTLBFlush         Counter = "tlb.flush"
	CtrShadowFill       Counter = "vmm.shadow.fill"
	CtrShadowDrop       Counter = "vmm.shadow.drop"
	CtrShadowSwitch     Counter = "vmm.shadow.switch"
	CtrHiddenFault      Counter = "vmm.fault.hidden"
	CtrGuestFault       Counter = "vmm.fault.guest"
	CtrCloakFault       Counter = "vmm.fault.cloak"
	CtrPageEncrypt      Counter = "cloak.encrypt"
	CtrPageDecrypt      Counter = "cloak.decrypt"
	CtrHashCompute      Counter = "cloak.hash"
	CtrHashVerifyOK     Counter = "cloak.verify.ok"
	CtrHashVerifyFail   Counter = "cloak.verify.fail"
	CtrMetaCacheHit     Counter = "cloak.metacache.hit"
	CtrMetaCacheMiss    Counter = "cloak.metacache.miss"
	CtrCTCSave          Counter = "vmm.ctc.save"
	CtrCTCRestore       Counter = "vmm.ctc.restore"
	CtrHypercall        Counter = "vmm.hypercall"
	CtrWorldSwitch      Counter = "vmm.worldswitch"
	CtrSyscall          Counter = "os.syscall"
	CtrContextSwitch    Counter = "os.contextswitch"
	CtrPageFaultDemand  Counter = "os.fault.demand"
	CtrPageFaultCOW     Counter = "os.fault.cow"
	CtrPageOut          Counter = "os.swap.out"
	CtrPageIn           Counter = "os.swap.in"
	CtrDiskRead         Counter = "disk.read"
	CtrDiskWrite        Counter = "disk.write"
	CtrFork             Counter = "os.fork"
	CtrExec             Counter = "os.exec"
	CtrSignalDeliver    Counter = "os.signal.deliver"
	CtrShimMarshalBytes Counter = "shim.marshal.bytes"
	CtrShimSyscall      Counter = "shim.syscall"
	CtrAttackSnoop      Counter = "attack.snoop"
	CtrAttackTamper     Counter = "attack.tamper"
	CtrAttackDetected   Counter = "attack.detected"
	CtrFaultInjected    Counter = "fault.injected"
	CtrShimRetry        Counter = "shim.retry"
	CtrQuarantine       Counter = "vmm.quarantine"

	// SMP counters (zero on a single-vCPU machine, so VCPUs=1 runs keep
	// their exports byte-identical to the historical single-CPU machine).
	CtrTLBShootdown Counter = "tlb.shootdown"
	CtrMigration    Counter = "os.migrate"

	// Persistence counters (zero unless a metadata journal is attached, so
	// journal-free runs keep their exports byte-identical).
	CtrJournalAppend     Counter = "persist.append"
	CtrJournalCheckpoint Counter = "persist.checkpoint"
	CtrJournalWriteErr   Counter = "persist.write.err"
	CtrJournalWedged     Counter = "persist.wedged"
	CtrReplayAccepted    Counter = "persist.replay.accepted"
	CtrReplayRejected    Counter = "persist.replay.rejected"
	CtrRecoverPage       Counter = "persist.recover.page"

	// Adversary-hardening counters (zero unless an adversary plan, a
	// resource quota, or the introspection monitor is active, so default
	// runs keep their exports byte-identical).
	CtrIagoRejected        Counter = "shim.iago.rejected"
	CtrQuotaDenied         Counter = "vmm.quota.denied"
	CtrJournalDomainWedged Counter = "persist.wedged.domain"
	CtrIntrospectScan      Counter = "vmi.scan"
	CtrIntrospectDiverge   Counter = "vmi.diverge"

	// Live-migration counters (zero unless a domain is checkpointed and
	// transferred, so non-migrating runs keep their exports byte-identical).
	CtrMigrateCkptPage Counter = "migrate.ckpt.page"
	CtrMigrateXfer     Counter = "migrate.xfer.frame"
	CtrMigrateRetry    Counter = "migrate.retry"

	// Cycle-attribution counters: these name cycle sinks that previously
	// charged the clock anonymously, so attributed profiles can decompose
	// every simulated cycle. CtrOther is the catch-all that keeps the
	// per-component breakdown summing to the clock total.
	CtrCompute  Counter = "cpu.compute"
	CtrIdle     Counter = "cpu.idle"
	CtrTrap     Counter = "cpu.trap"
	CtrTLBEvict Counter = "tlb.evict"
	CtrPageZero Counter = "mm.pagezero"
	CtrPageCopy Counter = "mm.pagecopy"
	CtrOther    Counter = "cycles.other"
)

// Stats is a bag of monotonically increasing event counters, shared by every
// vCPU of a machine (the baton orders their updates).
type Stats struct {
	counts map[Counter]uint64
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{counts: make(map[Counter]uint64)} }

// Inc adds one to counter c.
func (s *Stats) Inc(c Counter) { s.counts[c]++ }

// Add adds n to counter c.
func (s *Stats) Add(c Counter, n uint64) { s.counts[c] += n }

// Get reports the current value of counter c.
func (s *Stats) Get(c Counter) uint64 { return s.counts[c] }

// Snapshot returns a copy of all counters, for before/after deltas.
func (s *Stats) Snapshot() map[Counter]uint64 {
	out := make(map[Counter]uint64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// String renders the non-zero counters sorted by name.
func (s *Stats) String() string {
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-24s %12d\n", k, s.counts[Counter(k)])
	}
	return b.String()
}
