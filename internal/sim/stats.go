package sim

import (
	"fmt"
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

// counterNames gives each counter slot its name at export. It is sorted by
// name, so walking the slots in order walks the names in order.
var counterNames = [...]Counter{
	CtrAttackDetected, CtrAttackSnoop, CtrAttackTamper,
	CtrPageDecrypt, CtrPageEncrypt, CtrHashCompute, CtrMetaCacheHit,
	CtrMetaCacheMiss, CtrHashVerifyFail, CtrHashVerifyOK,
	CtrCompute, CtrIdle, CtrTrap, CtrOther,
	CtrDiskRead, CtrDiskWrite, CtrFaultInjected, CtrMemAccess,
	CtrMigrateCkptPage, CtrMigrateRetry, CtrMigrateXfer, CtrPageCopy, CtrPageZero,
	CtrContextSwitch, CtrExec, CtrPageFaultCOW, CtrPageFaultDemand, CtrFork,
	CtrMigration, CtrSignalDeliver, CtrPageIn, CtrPageOut, CtrSyscall,
	CtrJournalAppend, CtrJournalCheckpoint, CtrRecoverPage, CtrReplayAccepted,
	CtrReplayRejected, CtrJournalWedged, CtrJournalDomainWedged, CtrJournalWriteErr,
	CtrIagoRejected, CtrShimMarshalBytes, CtrShimRetry, CtrShimSyscall,
	CtrTLBEvict, CtrTLBFlush, CtrTLBHit, CtrTLBMiss, CtrTLBShootdown,
	CtrIntrospectDiverge, CtrIntrospectScan,
	CtrCTCRestore, CtrCTCSave, CtrCloakFault, CtrGuestFault, CtrHiddenFault,
	CtrHypercall, CtrQuarantine, CtrQuotaDenied,
	CtrShadowDrop, CtrShadowFill, CtrShadowSwitch, CtrWorldSwitch,
}

// slot returns c's index in counterNames. The compiler lowers a switch over
// string constants to length and byte comparisons, so finding a counter's
// slot hashes nothing. Every Counter is one of the constants above; any
// other name is a bug at the call site.
func (c Counter) slot() int {
	switch c {
	case CtrAttackDetected:
		return 0
	case CtrAttackSnoop:
		return 1
	case CtrAttackTamper:
		return 2
	case CtrPageDecrypt:
		return 3
	case CtrPageEncrypt:
		return 4
	case CtrHashCompute:
		return 5
	case CtrMetaCacheHit:
		return 6
	case CtrMetaCacheMiss:
		return 7
	case CtrHashVerifyFail:
		return 8
	case CtrHashVerifyOK:
		return 9
	case CtrCompute:
		return 10
	case CtrIdle:
		return 11
	case CtrTrap:
		return 12
	case CtrOther:
		return 13
	case CtrDiskRead:
		return 14
	case CtrDiskWrite:
		return 15
	case CtrFaultInjected:
		return 16
	case CtrMemAccess:
		return 17
	case CtrMigrateCkptPage:
		return 18
	case CtrMigrateRetry:
		return 19
	case CtrMigrateXfer:
		return 20
	case CtrPageCopy:
		return 21
	case CtrPageZero:
		return 22
	case CtrContextSwitch:
		return 23
	case CtrExec:
		return 24
	case CtrPageFaultCOW:
		return 25
	case CtrPageFaultDemand:
		return 26
	case CtrFork:
		return 27
	case CtrMigration:
		return 28
	case CtrSignalDeliver:
		return 29
	case CtrPageIn:
		return 30
	case CtrPageOut:
		return 31
	case CtrSyscall:
		return 32
	case CtrJournalAppend:
		return 33
	case CtrJournalCheckpoint:
		return 34
	case CtrRecoverPage:
		return 35
	case CtrReplayAccepted:
		return 36
	case CtrReplayRejected:
		return 37
	case CtrJournalWedged:
		return 38
	case CtrJournalDomainWedged:
		return 39
	case CtrJournalWriteErr:
		return 40
	case CtrIagoRejected:
		return 41
	case CtrShimMarshalBytes:
		return 42
	case CtrShimRetry:
		return 43
	case CtrShimSyscall:
		return 44
	case CtrTLBEvict:
		return 45
	case CtrTLBFlush:
		return 46
	case CtrTLBHit:
		return 47
	case CtrTLBMiss:
		return 48
	case CtrTLBShootdown:
		return 49
	case CtrIntrospectDiverge:
		return 50
	case CtrIntrospectScan:
		return 51
	case CtrCTCRestore:
		return 52
	case CtrCTCSave:
		return 53
	case CtrCloakFault:
		return 54
	case CtrGuestFault:
		return 55
	case CtrHiddenFault:
		return 56
	case CtrHypercall:
		return 57
	case CtrQuarantine:
		return 58
	case CtrQuotaDenied:
		return 59
	case CtrShadowDrop:
		return 60
	case CtrShadowFill:
		return 61
	case CtrShadowSwitch:
		return 62
	case CtrWorldSwitch:
		return 63
	}
	panic(fmt.Sprintf("sim: unknown counter %q", c))
}

// Stats is a bag of monotonically increasing event counters, shared by every
// vCPU of a machine (the baton orders their updates). Each counter owns one
// slot of a fixed array.
type Stats struct {
	counts [len(counterNames)]uint64
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{} }

// Inc adds one to counter c.
func (s *Stats) Inc(c Counter) { s.counts[c.slot()]++ }

// Add adds n to counter c.
func (s *Stats) Add(c Counter, n uint64) { s.counts[c.slot()] += n }

// Get reports the current value of counter c.
func (s *Stats) Get(c Counter) uint64 { return s.counts[c.slot()] }

// Snapshot returns a copy of the non-zero counters, for before/after deltas.
func (s *Stats) Snapshot() map[Counter]uint64 {
	out := make(map[Counter]uint64)
	for i, v := range s.counts {
		if v != 0 {
			out[counterNames[i]] = v
		}
	}
	return out
}

// String renders the non-zero counters sorted by name.
func (s *Stats) String() string {
	var b strings.Builder
	for i, v := range s.counts {
		if v != 0 {
			fmt.Fprintf(&b, "%-24s %12d\n", counterNames[i], v)
		}
	}
	return b.String()
}
