package obs

import "fmt"

// Kind classifies a span. The set mirrors the machine's crossing points:
// everything the VMM or guest kernel observes on a privilege or protection
// boundary gets its own kind so exports can be decomposed per mechanism.
type Kind uint8

// Span kinds recorded across the stack.
const (
	KindNone        Kind = iota
	KindSyscall          // guest syscall round trip (trap to return)
	KindHypercall        // shim -> VMM hypercall dispatch
	KindWorldSwitch      // guest <-> VMM transition
	KindPageFault        // application-visible fault resolution
	KindDisk             // one disk block read or write
	KindCloak            // cloak transition: page encrypt or verify+decrypt
	KindCTC              // cloaked thread context save/scrub or restore
	KindCtxSwitch        // guest scheduler context switch
	KindSwap             // page-out / page-in decision in the guest mm
	KindProc             // process lifecycle event (fork, exit)
	KindSecurity         // VMM security event (integrity, tamper, ...)
	KindFault            // injected fault firing at a fault site
	KindQuarantine       // domain quarantine: scrub, revoke, reclaim
	KindPersist          // metadata journal append/checkpoint/replay
	KindRetry            // shim transient-fault retry loop (backoff included)
	KindIntrospect       // hypervisor-side VMI scan over guest kernel objects
)

var kindNames = [...]string{
	"none", "syscall", "hypercall", "worldswitch", "pagefault", "disk",
	"cloak", "ctc", "ctxswitch", "swap", "proc", "security",
	"fault", "quarantine", "persist", "retry", "introspect",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span is one typed trace record. Begin/end spans carry a duration;
// instantaneous events have Instant set and Dur zero. All times are
// simulated cycles.
type Span struct {
	Start   uint64 // simulated cycle at which the span opened
	Dur     uint64 // simulated cycles covered (0 for instants)
	Kind    Kind
	Name    string // operation name within the kind (e.g. syscall name)
	Arg     uint64 // kind-specific detail (page number, byte count, ...)
	Instant bool
	Attr    Attr
}

// String renders the span for human-readable dumps.
func (s Span) String() string {
	if s.Instant {
		return fmt.Sprintf("[%12d] %-11s %-20s arg=%d (%s)",
			s.Start, s.Kind, s.Name, s.Arg, s.Attr)
	}
	return fmt.Sprintf("[%12d] %-11s %-20s arg=%d +%d cyc (%s)",
		s.Start, s.Kind, s.Name, s.Arg, s.Dur, s.Attr)
}

// RingStats describes the state of the trace ring buffer at export time, so
// consumers can tell a truncated trace from a complete one.
type RingStats struct {
	// Total is the number of spans ever emitted.
	Total uint64
	// Dropped is the number of spans overwritten after the ring wrapped.
	Dropped uint64
	// Wrapped reports whether the ring filled and began overwriting.
	Wrapped bool
}
