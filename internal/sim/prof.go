package sim

import "overshadow/internal/obs"

// Sim-time profiling: when enabled, the World maintains a stack of open
// spans per guest task and leaf-attributes every cycle charge to the current
// stack in an obs.Profile. Guest traps are nested within a task but
// interleave across tasks (a blocked syscall's span stays open while another
// process runs), so the stack is swapped on every dispatch in VCPU.SetTask,
// keyed by TID — tasks migrate across vCPUs, so the stack table is
// machine-global, not per-vCPU. Like Metrics and Tracer, the whole layer
// costs one nil check per charge / span / dispatch when disabled.

// profState is the World's profiling state, split out so the disabled path
// carries a single pointer. Only the baton holder mutates it.
type profState struct {
	prof *obs.Profile
	// root is the tree root for the current phase; the base frame of every
	// task's stack.
	root *obs.ProfNode
	// stack is the active task's open-span stack (element 0 is root); stacks
	// holds the suspended tasks' stacks keyed by TID.
	stack  []*obs.ProfNode
	stacks map[int][]*obs.ProfNode
	// tid is the task whose stack is active (0 = machine context).
	tid int
}

// EnableProfile turns on stack-attributed profiling into a fresh profile of
// this world's own (the harness merges per-world profiles); the harness must
// set the phase before enabling — the root frame is the phase label at
// enable time. Returns the active profile.
func (w *World) EnableProfile() *obs.Profile {
	prof := obs.NewProfile(counterTable)
	root := prof.Root(w.phase)
	w.prof = &profState{
		prof:   prof,
		root:   root,
		stack:  append(make([]*obs.ProfNode, 0, 8), root),
		stacks: make(map[int][]*obs.ProfNode),
	}
	return prof
}

// Profile returns the active profile, or nil when profiling is disabled.
func (w *World) Profile() *obs.Profile {
	if w.prof == nil {
		return nil
	}
	return w.prof.prof
}

// profLeaf charges cycles at the top of the active stack to the counter in
// slot. Called only when w.prof != nil.
func (w *World) profLeaf(slot int, cycles uint64) {
	p := w.prof
	p.stack[len(p.stack)-1].AddLeaf(slot, cycles)
}

// profObserve feeds the (kind, domain) duration histogram. Called only when
// w.prof != nil.
func (w *World) profObserve(kind obs.Kind, domain uint32, dur uint64) {
	w.prof.prof.Observe(kind, domain, dur)
}

// profPush opens a frame for a beginning span and returns the owning TID and
// the stack depth to restore on End. Called only when w.prof != nil.
func (w *World) profPush(kind obs.Kind, name string) (tid, depth int) {
	p := w.prof
	depth = len(p.stack)
	p.stack = append(p.stack, p.stack[depth-1].Child(kind, name))
	return p.tid, depth
}

// profPop closes the frame opened at the given depth for the given task. If
// the task has context-switched away, its suspended stack is truncated
// instead; frames opened above the span (spans that never Ended, e.g. a task
// that exited mid-trap) are discarded with it.
func (w *World) profPop(tid, depth int) {
	p := w.prof
	if tid == p.tid {
		if depth >= 1 && depth <= len(p.stack) {
			p.stack = p.stack[:depth]
		}
		return
	}
	if s, ok := p.stacks[tid]; ok && depth >= 1 && depth <= len(s) {
		p.stacks[tid] = s[:depth]
	}
}

// profDispatch swaps the active stack on a task dispatch (a no-op when the
// task is already active). A task seen for the first time starts a fresh
// stack at the phase root. Called only when w.prof != nil.
func (w *World) profDispatch(tid int) {
	p := w.prof
	if tid == p.tid {
		return
	}
	p.stacks[p.tid] = p.stack
	s, ok := p.stacks[tid]
	if !ok {
		// Amortized: one allocation per distinct guest task, not per dispatch.
		s = append(make([]*obs.ProfNode, 0, 8), p.root)
	}
	p.stack = s
	p.tid = tid
}

// profSetPhase re-roots the profiler on a phase change. Future task stacks
// start under the new phase; the active stack's base is swapped only when no
// span is open on it (the harness changes phase between measured regions,
// never mid-trap).
func (w *World) profSetPhase(phase string) {
	p := w.prof
	p.root = p.prof.Root(phase)
	if len(p.stack) == 1 {
		p.stack[0] = p.root
	}
}
