package sim

import "overshadow/internal/obs"

// Tracer is a fixed-capacity ring buffer of structured spans (obs.Span). It
// is disabled by default: emission costs one branch until EnableTrace is
// called, so production runs pay nothing for the instrumentation points
// sprinkled through the VMM and guest kernel. Every vCPU of a machine writes
// the one ring; spans land in execution order, which the baton makes total.
type Tracer struct {
	cap   int
	buf   []obs.Span
	next  int
	total uint64
}

// Wrapped reports whether the ring filled and began overwriting, i.e.
// whether the exported trace is truncated.
func (t *Tracer) Wrapped() bool {
	if t == nil {
		return false
	}
	return len(t.buf) == t.cap && t.total > uint64(t.cap)
}

// Dropped reports how many spans were overwritten after the ring wrapped.
func (t *Tracer) Dropped() uint64 {
	if !t.Wrapped() {
		return 0
	}
	return t.total - uint64(t.cap)
}

// record appends a span, overwriting the oldest entry once full.
func (t *Tracer) record(s obs.Span) {
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % t.cap
	}
	t.total++
}

// EnableTrace turns on tracing with a ring of the given capacity.
func (w *World) EnableTrace(capacity int) {
	if capacity <= 0 {
		capacity = 1024
	}
	w.Tracer = &Tracer{cap: capacity, buf: make([]obs.Span, 0, capacity)}
}

// TraceEnabled reports whether spans are being recorded.
func (w *World) TraceEnabled() bool { return w.Tracer != nil }

// SpanHandle marks an open span returned by Begin; End closes it. The zero
// handle (returned when both tracing and profiling are off) makes End a
// no-op. The handle is a value constructed once at Begin and never mutated —
// it lives on one vCPU's call path.
type SpanHandle struct {
	w     *World
	start Cycles
	kind  obs.Kind
	name  string
	arg   uint64
	attr  obs.Attr
	// traced records whether the tracer was listening at Begin; pushed
	// records whether the profiler pushed a stack frame, with profTID and
	// profDepth naming the frame to pop (spans interleave across guest
	// context switches, so End must pop the opening task's stack, not
	// whichever stack is active).
	traced    bool
	pushed    bool
	profTID   int
	profDepth int
}

// Begin opens a span of the given kind at the current simulated time,
// attributed to this vCPU's current task. When tracing and profiling are
// both disabled this is two branches and returns the zero handle.
func (c *VCPU) Begin(kind obs.Kind, name string, arg uint64) SpanHandle {
	w := c.w
	t := w.Tracer
	traced := t != nil
	if !traced && w.prof == nil {
		return SpanHandle{}
	}
	pushed := false
	profTID, profDepth := 0, 0
	if w.prof != nil {
		pushed = true
		profTID, profDepth = w.profPush(kind, name)
	}
	return SpanHandle{
		w: w, start: w.Clock.Now(), kind: kind, name: name, arg: arg,
		attr: c.attr, traced: traced,
		pushed: pushed, profTID: profTID, profDepth: profDepth,
	}
}

// End closes the span at the current simulated time: records it when traced,
// and pops the profiler frame and feeds the (kind, domain) duration
// histogram when profiled.
func (h SpanHandle) End() {
	if h.w == nil {
		return
	}
	dur := h.w.Clock.Now() - h.start
	if h.traced {
		h.w.Tracer.record(obs.Span{
			Start: uint64(h.start),
			Dur:   uint64(dur),
			Kind:  h.kind,
			Name:  h.name,
			Arg:   h.arg,
			Attr:  h.attr,
		})
	}
	if h.pushed && h.w.prof != nil {
		h.w.profPop(h.profTID, h.profDepth)
		h.w.profObserve(h.kind, h.attr.Domain, uint64(dur))
	}
}

// Emit records an instantaneous event at the current simulated time.
func (c *VCPU) Emit(kind obs.Kind, name string, arg uint64) {
	w := c.w
	t := w.Tracer
	if t == nil {
		return
	}
	t.record(obs.Span{Start: uint64(w.Clock.Now()), Kind: kind, Name: name, Arg: arg, Instant: true, Attr: c.attr})
}

// EmitSpan records a completed span that ended now and covered the last dur
// cycles — the natural shape for block charges (world switch, disk op)
// where the cost is paid in one charge.
func (c *VCPU) EmitSpan(kind obs.Kind, name string, arg uint64, dur Cycles) {
	w := c.w
	if w.prof != nil {
		// Block charges are already leaf-attributed by the Charge that paid
		// them; the profiler only needs the duration sample.
		w.profObserve(kind, c.attr.Domain, uint64(dur))
	}
	t := w.Tracer
	if t == nil {
		return
	}
	now := w.Clock.Now()
	t.record(obs.Span{Start: uint64(now - dur), Dur: uint64(dur), Kind: kind, Name: name, Arg: arg, Attr: c.attr})
}

// TraceSpans returns the retained spans oldest-first plus the ring state
// (total emitted, dropped, wrapped), so consumers can tell a truncated
// trace from a complete one.
func (w *World) TraceSpans() ([]obs.Span, obs.RingStats) {
	t := w.Tracer
	if t == nil {
		return nil, obs.RingStats{}
	}
	out := make([]obs.Span, 0, len(t.buf))
	if len(t.buf) == t.cap {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out, obs.RingStats{Total: t.total, Dropped: t.Dropped(), Wrapped: t.Wrapped()}
}
