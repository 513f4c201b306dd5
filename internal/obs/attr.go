// Package obs is the observability layer of the simulated machine:
// attribution keys, attributed cycle metrics, structured spans, the
// stack-attributed profile, and one exporter per artifact: Chrome
// trace_event JSON for Perfetto (read back by cmd/overtrace) and the run
// report, which joins the metrics buckets, the profile's folded stacks and
// its duration histograms (read back by cmd/overprof, the one source of
// latency-percentile tables).
//
// The package sits below internal/sim — sim timestamps and attributes every
// charge and span, obs only defines the data model and serialization — and
// imports nothing from the rest of the module, keeping the dependency graph
// acyclic. Every timestamp is a raw simulated-cycle count (uint64), never
// host time, so all exports are bit-identical for a given seed.
package obs

import (
	"fmt"
	"strings"
)

// Attr identifies who was on the simulated CPU when a cycle was charged or a
// span was emitted. It is a comparable value used as the metrics row key;
// the zero Attr means "machine context" (boot, VMM internals, scheduler
// idle) before any guest task has been dispatched.
type Attr struct {
	// Phase is the experiment-phase label set by the harness
	// (e.g. "E2/cloaked"); empty outside harness runs.
	Phase string `json:"phase,omitempty"`
	// Domain is the cloaking domain ID, 0 for uncloaked contexts.
	Domain uint32 `json:"domain,omitempty"`
	// PID is the guest process (thread-group leader) ID; 0 for the machine
	// context.
	PID int `json:"pid,omitempty"`
	// TID is the guest task ID (equal to PID for single-threaded
	// processes).
	TID int `json:"tid,omitempty"`
	// Task is the guest task name.
	Task string `json:"task,omitempty"`
	// Cloaked reports whether the task runs under cloaking.
	Cloaked bool `json:"cloaked,omitempty"`
}

// String renders the attribution key compactly for human-readable dumps.
func (a Attr) String() string {
	if a == (Attr{}) {
		return "machine"
	}
	var b strings.Builder
	if a.Phase != "" {
		fmt.Fprintf(&b, "[%s] ", a.Phase)
	}
	if a.TID == 0 && a.PID == 0 {
		b.WriteString("machine")
	} else {
		fmt.Fprintf(&b, "pid %d tid %d", a.PID, a.TID)
		if a.Task != "" {
			fmt.Fprintf(&b, " %q", a.Task)
		}
	}
	if a.Domain != 0 {
		fmt.Fprintf(&b, " dom %d", a.Domain)
	}
	if a.Cloaked {
		b.WriteString(" cloaked")
	}
	return b.String()
}

// key is a total order over attribution keys used to make every export
// deterministic regardless of map iteration order.
func (a Attr) key() string {
	return fmt.Sprintf("%s\x00%08d\x00%012d\x00%012d\x00%s\x00%t",
		a.Phase, a.Domain, a.PID, a.TID, a.Task, a.Cloaked)
}
