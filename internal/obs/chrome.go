package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"overshadow/internal/ordered"
)

// The Chrome trace_event exporter renders spans in the JSON Object Format
// understood by Perfetto and chrome://tracing: one process for the simulated
// machine, thread track 0 for the VMM, and one thread track per guest task.
// Timestamps are raw simulated cycles (the "ts" unit is nominally
// microseconds, but viewers only use it as a linear axis, and cycles keep
// the export bit-identical per seed).

// vmmTrack is the synthetic Chrome thread id carrying VMM-side spans.
const vmmTrack = 0

// ChromeArgs is the args payload of an exported event. For metadata events
// only Name is set; for span events the attribution fields are set.
type ChromeArgs struct {
	Name    string `json:"name,omitempty"`
	Arg     uint64 `json:"arg,omitempty"`
	Phase   string `json:"phase,omitempty"`
	Domain  uint32 `json:"domain,omitempty"`
	Cloaked bool   `json:"cloaked,omitempty"`
}

// ChromeEvent is one entry of the traceEvents array. The field set covers
// the three event types the exporter emits: "M" metadata, "X" complete
// spans, and "i" instants.
type ChromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat,omitempty"`
	Ph    string      `json:"ph"`
	Ts    uint64      `json:"ts"`
	Dur   *uint64     `json:"dur,omitempty"`
	Pid   int         `json:"pid"`
	Tid   int         `json:"tid"`
	Scope string      `json:"s,omitempty"`
	Args  *ChromeArgs `json:"args,omitempty"`
}

// ChromeOther is the otherData block: ring-buffer accounting so a consumer
// can tell a truncated trace from a complete one.
type ChromeOther struct {
	ClockDomain  string `json:"clockDomain"`
	TotalSpans   uint64 `json:"totalSpans"`
	DroppedSpans uint64 `json:"droppedSpans"`
	RingWrapped  bool   `json:"ringWrapped"`
}

// ChromeTrace is the top-level JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       ChromeOther   `json:"otherData"`
}

// trackFor maps a span to its Chrome thread track: spans produced by the
// virtualization layer itself land on the VMM track, everything else on the
// track of the guest task that was running.
func trackFor(s Span) int {
	switch s.Kind {
	case KindHypercall, KindWorldSwitch, KindCTC, KindSecurity:
		return vmmTrack
	}
	return s.Attr.TID
}

// BuildChromeTrace assembles the export object from a span slice (oldest
// first, as returned by the sim tracer) and the ring state.
func BuildChromeTrace(spans []Span, ring RingStats) *ChromeTrace {
	// Name each guest-task track after the task that first ran on it.
	taskNames := make(map[int]string)
	for _, s := range spans {
		tid := trackFor(s)
		if tid == vmmTrack {
			continue
		}
		if _, ok := taskNames[tid]; !ok {
			name := s.Attr.Task
			if name == "" {
				name = "task"
			}
			taskNames[tid] = fmt.Sprintf("%s (pid %d)", name, s.Attr.PID)
		}
	}
	tids := ordered.Keys(taskNames)

	events := make([]ChromeEvent, 0, len(spans)+len(tids)+2)
	events = append(events,
		ChromeEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: vmmTrack,
			Args: &ChromeArgs{Name: "overshadow simulated machine"}},
		ChromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: vmmTrack,
			Args: &ChromeArgs{Name: "VMM"}},
	)
	for _, tid := range tids {
		events = append(events, ChromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: &ChromeArgs{Name: taskNames[tid]}})
	}
	for _, s := range spans {
		ev := ChromeEvent{
			Name: s.Name,
			Cat:  s.Kind.String(),
			Ts:   s.Start,
			Pid:  1,
			Tid:  trackFor(s),
			Args: &ChromeArgs{
				Arg:     s.Arg,
				Phase:   s.Attr.Phase,
				Domain:  s.Attr.Domain,
				Cloaked: s.Attr.Cloaked,
			},
		}
		if s.Instant {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			dur := s.Dur
			ev.Dur = &dur
		}
		events = append(events, ev)
	}
	return &ChromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData: ChromeOther{
			ClockDomain:  "simulated-cycles",
			TotalSpans:   ring.Total,
			DroppedSpans: ring.Dropped,
			RingWrapped:  ring.Wrapped,
		},
	}
}

// WriteChromeTrace serializes the spans as indented trace_event JSON. The
// output is byte-identical for identical inputs: ordering is emission order
// for spans and sorted track order for metadata, and no maps are marshalled.
func WriteChromeTrace(w io.Writer, spans []Span, ring RingStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(BuildChromeTrace(spans, ring))
}

// ParseChromeTrace reads a trace previously written by WriteChromeTrace
// (used by cmd/overtrace and the round-trip tests).
func ParseChromeTrace(r io.Reader) (*ChromeTrace, error) {
	var t ChromeTrace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	return &t, nil
}
