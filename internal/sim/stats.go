package sim

import (
	"fmt"
	"strings"

	"overshadow/internal/obs"
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
	// every simulated cycle. Every charge names its counter, so the
	// per-component breakdown sums to the clock total with no catch-all.
	CtrCompute  Counter = "cpu.compute"
	CtrIdle     Counter = "cpu.idle"
	CtrTrap     Counter = "cpu.trap"
	CtrTLBEvict Counter = "tlb.evict"
	CtrPageZero Counter = "mm.pagezero"
	CtrPageCopy Counter = "mm.pagecopy"
)

// counterNames gives each counter slot its name at export. It is sorted by
// name, so walking the slots in order walks the names in order.
var counterNames = [...]Counter{
	CtrPageDecrypt, CtrPageEncrypt, CtrHashCompute, CtrMetaCacheHit,
	CtrMetaCacheMiss, CtrHashVerifyFail, CtrHashVerifyOK,
	CtrCompute, CtrIdle, CtrTrap,
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

// counterTable is counterNames as obs's counter vocabulary: Stats, metrics
// rows and profile leaf rows all index a counter by its slot.
var counterTable = obs.NewCounters(counterNames[:])

// CounterTable returns the counter vocabulary of every attributed store
// (obs.NewMetrics, obs.NewProfile) that this machine's charges land in.
func CounterTable() *obs.Counters { return counterTable }

// slot returns c's index in counterNames. The compiler lowers a switch over
// string constants to length and byte comparisons, so finding a counter's
// slot hashes nothing. Every Counter is one of the constants above; any
// other name is a bug at the call site.
func (c Counter) slot() int {
	switch c {
	case CtrPageDecrypt:
		return 0
	case CtrPageEncrypt:
		return 1
	case CtrHashCompute:
		return 2
	case CtrMetaCacheHit:
		return 3
	case CtrMetaCacheMiss:
		return 4
	case CtrHashVerifyFail:
		return 5
	case CtrHashVerifyOK:
		return 6
	case CtrCompute:
		return 7
	case CtrIdle:
		return 8
	case CtrTrap:
		return 9
	case CtrDiskRead:
		return 10
	case CtrDiskWrite:
		return 11
	case CtrFaultInjected:
		return 12
	case CtrMemAccess:
		return 13
	case CtrMigrateCkptPage:
		return 14
	case CtrMigrateRetry:
		return 15
	case CtrMigrateXfer:
		return 16
	case CtrPageCopy:
		return 17
	case CtrPageZero:
		return 18
	case CtrContextSwitch:
		return 19
	case CtrExec:
		return 20
	case CtrPageFaultCOW:
		return 21
	case CtrPageFaultDemand:
		return 22
	case CtrFork:
		return 23
	case CtrMigration:
		return 24
	case CtrSignalDeliver:
		return 25
	case CtrPageIn:
		return 26
	case CtrPageOut:
		return 27
	case CtrSyscall:
		return 28
	case CtrJournalAppend:
		return 29
	case CtrJournalCheckpoint:
		return 30
	case CtrRecoverPage:
		return 31
	case CtrReplayAccepted:
		return 32
	case CtrReplayRejected:
		return 33
	case CtrJournalWedged:
		return 34
	case CtrJournalDomainWedged:
		return 35
	case CtrJournalWriteErr:
		return 36
	case CtrIagoRejected:
		return 37
	case CtrShimMarshalBytes:
		return 38
	case CtrShimRetry:
		return 39
	case CtrShimSyscall:
		return 40
	case CtrTLBEvict:
		return 41
	case CtrTLBFlush:
		return 42
	case CtrTLBHit:
		return 43
	case CtrTLBMiss:
		return 44
	case CtrTLBShootdown:
		return 45
	case CtrIntrospectDiverge:
		return 46
	case CtrIntrospectScan:
		return 47
	case CtrCTCRestore:
		return 48
	case CtrCTCSave:
		return 49
	case CtrCloakFault:
		return 50
	case CtrGuestFault:
		return 51
	case CtrHiddenFault:
		return 52
	case CtrHypercall:
		return 53
	case CtrQuarantine:
		return 54
	case CtrQuotaDenied:
		return 55
	case CtrShadowDrop:
		return 56
	case CtrShadowFill:
		return 57
	case CtrShadowSwitch:
		return 58
	case CtrWorldSwitch:
		return 59
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
