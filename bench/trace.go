package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// spanKind names a span. Benchmark-boundary spans come first, then one
// env.<Method> kind per guest-visible Env call.
type spanKind uint8

const (
	spanWorld spanKind = iota
	spanNewSystem
	spanRun
	spanMigrate
	spanRestore
	spanReboot
	spanVerify
	firstEnvSpan
)

// Env spans, in the order of the Env interface: memory accesses, then
// system calls (memory mapping included), then process control.
const (
	opCompute spanKind = firstEnvSpan + iota
	opReadMem
	opWriteMem
	opLoad64
	opStore64
	opAlloc
	opFree
	opSbrk
	opShmAttach
	opOpen
	opClose
	opRead
	opWrite
	opPread
	opPwrite
	opLseek
	opStat
	opFstat
	opUnlink
	opMkdir
	opDup
	opPipe
	opTruncate
	opReadDir
	opFsync
	opNull
	opSpawnThread
	opJoinThread
	opExitThread
	opFork
	opExec
	opWaitPid
	opExit
	opKill
	opSignal
	opSleep
	opYield
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"world", "core.NewSystem", "core.System.Run", "migrate.Migrate", "migrate.Restore", "core.Reboot", "verify",
	"env.Compute", "env.ReadMem", "env.WriteMem", "env.Load64", "env.Store64", "env.Alloc", "env.Free", "env.Sbrk",
	"env.ShmAttach", "env.Open", "env.Close", "env.Read", "env.Write", "env.Pread", "env.Pwrite", "env.Lseek",
	"env.Stat", "env.Fstat", "env.Unlink", "env.Mkdir", "env.Dup", "env.Pipe", "env.Truncate", "env.ReadDir",
	"env.Fsync", "env.Null", "env.SpawnThread", "env.JoinThread", "env.ExitThread", "env.Fork", "env.Exec",
	"env.WaitPid", "env.Exit", "env.Kill", "env.Signal", "env.Sleep", "env.Yield",
}

// Env span categories: the app-visible operation classes whose self time
// the traced run reports.
const (
	catMem     = "mem"
	catSyscall = "syscall"
	catProcess = "process"
	catCompute = "compute"
)

func (k spanKind) String() string { return spanNames[k] }

// category places an env span in its class; benchmark spans have none.
func (k spanKind) category() string {
	switch {
	case k < firstEnvSpan:
		return ""
	case k == opCompute:
		return catCompute
	case k <= opStore64:
		return catMem
	case k <= opNull:
		return catSyscall
	default:
		return catProcess
	}
}

// maxKeptEnvSpans bounds the individual env spans a traced pass keeps for
// the Chrome file. Benchmark spans are always kept, and every span counts
// in the aggregates; the overflow is reported as env.spans_dropped.
const maxKeptEnvSpans = 1 << 16

// spanRec is one finished span.
type spanRec struct {
	kind   spanKind
	world  int
	tid    int   // guest task id; 0 for benchmark spans
	parent int32 // index of the parent span in tracer.spans, -1 if none kept
	start  int64 // ns since the tracer started
	end    int64
	self   int64
}

type openSpan struct {
	kind  spanKind
	start int64
	self  int64
	idx   int32 // index in tracer.spans, -1 when dropped
}

// task is one span stack: a guest task, or the benchmark itself.
type task struct {
	tid   int
	stack []openSpan
	// digest folds every app-visible result the task observed.
	digest  uint64
	memOps  uint64
	spawned bool // a program the benchmark spawned, not a fork or thread
}

func (t *task) top() *openSpan {
	if len(t.stack) == 0 {
		return nil
	}
	return &t.stack[len(t.stack)-1]
}

// spanAgg accumulates one span kind over a pass.
type spanAgg struct {
	count, total, self int64
}

// tracer records spans at the benchmark's boundaries and around every Env
// call. The scheduler baton runs one guest task at a time, so events
// arrive serialized; the task that emits an event is the one that was
// running just before it. Each interval between consecutive events is
// therefore charged, as self time, to the innermost open span of the task
// that emits the later event (or, when that task has none open, to the
// innermost benchmark span). Every instant of a world lands in exactly one
// span, so self times are never negative and sum to the world's duration.
type tracer struct {
	base    time.Time
	last    int64
	world   int
	host    task
	tasks   []*task // guest tasks of the current world
	exiting *task   // task inside Exit: its spans end at the next event
	spans   []spanRec
	keptEnv int
	dropped int64
	agg     [numSpanKinds]spanAgg
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// newTask registers a guest task of the current world.
func (tr *tracer) newTask(tid int) *task {
	t := &task{tid: tid}
	tr.tasks = append(tr.tasks, t)
	return t
}

// charge gives the interval since the last event to t's innermost span.
func (tr *tracer) charge(t *task, now int64) {
	if x := tr.exiting; x != nil {
		tr.exiting = nil
		tr.charge(x, now)
		tr.closeAll(x, now)
	}
	d := now - tr.last
	tr.last = now
	if top := t.top(); top != nil {
		top.self += d
	} else if top := tr.host.top(); top != nil {
		top.self += d
	}
}

func (tr *tracer) begin(t *task, k spanKind) {
	now := tr.now()
	tr.charge(t, now)
	tr.push(t, k, now)
}

func (tr *tracer) push(t *task, k spanKind, now int64) {
	parent := int32(-1)
	if top := t.top(); top != nil {
		parent = top.idx
	} else if top := tr.host.top(); top != nil {
		parent = top.idx
	}
	env := k >= firstEnvSpan
	idx := int32(-1)
	if env && tr.keptEnv == maxKeptEnvSpans {
		tr.dropped++
	} else {
		if env {
			tr.keptEnv++
		}
		idx = int32(len(tr.spans))
		tr.spans = append(tr.spans, spanRec{kind: k, world: tr.world, tid: t.tid, parent: parent, start: now})
	}
	t.stack = append(t.stack, openSpan{kind: k, start: now, idx: idx})
}

func (tr *tracer) end(t *task) {
	now := tr.now()
	tr.charge(t, now)
	tr.pop(t, now)
}

func (tr *tracer) pop(t *task, now int64) {
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	a := &tr.agg[s.kind]
	a.count++
	a.total += now - s.start
	a.self += s.self
	if s.idx >= 0 {
		r := &tr.spans[s.idx]
		r.end = now
		r.self = s.self
	}
}

func (tr *tracer) closeAll(t *task, now int64) {
	for len(t.stack) > 0 {
		tr.pop(t, now)
	}
}

// exit marks t as leaving: Exit never returns, so its open spans end at
// the next event, which the kernel's teardown and handoff precede.
func (tr *tracer) exit(t *task, k spanKind) {
	tr.begin(t, k)
	tr.exiting = t
}

// beginWorld opens a world's root span; the gap since the previous world
// (measurement and GC outside the world) is not charged to anything.
func (tr *tracer) beginWorld(id int) {
	tr.world = id
	tr.last = tr.now()
	tr.push(&tr.host, spanWorld, tr.last)
}

// hostBegin and hostEnd bracket a benchmark-side call into a layer.
func (tr *tracer) hostBegin(k spanKind) {
	if tr != nil {
		tr.begin(&tr.host, k)
	}
}

func (tr *tracer) hostEnd() {
	if tr == nil {
		return
	}
	now := tr.now()
	tr.charge(&tr.host, now)
	if tr.host.top().kind == spanRun || tr.host.top().kind == spanWorld {
		// Guest tasks blocked forever (a crashed machine, a killed
		// process) never end their spans; the machine is done with them.
		for _, t := range tr.tasks {
			tr.closeAll(t, now)
		}
	}
	tr.pop(&tr.host, now)
}

// endWorld closes every span the world left open, the root last.
func (tr *tracer) endWorld() {
	if tr == nil {
		return
	}
	for len(tr.host.stack) > 0 {
		tr.hostEnd()
	}
	tr.tasks = tr.tasks[:0]
	tr.exiting = nil
}

// catSelf sums the self time of env spans per category, in ms.
func (tr *tracer) catSelf() map[string]float64 {
	out := map[string]float64{catMem: 0, catSyscall: 0, catProcess: 0, catCompute: 0}
	for k := firstEnvSpan; k < numSpanKinds; k++ {
		out[k.category()] += float64(tr.agg[k].self) / 1e6
	}
	return out
}

// writeTable prints the per-span self-time table, largest self time first.
func (tr *tracer) writeTable(w io.Writer, workload string) {
	var kinds []spanKind
	for k := spanKind(0); k < numSpanKinds; k++ {
		if tr.agg[k].count > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return tr.agg[kinds[i]].self > tr.agg[kinds[j]].self })
	fmt.Fprintf(w, "traced pass self time, workload %s (%d spans dropped from the trace file)\n", workload, tr.dropped)
	fmt.Fprintf(w, "  %-20s %-8s %12s %12s %12s\n", "span", "class", "count", "total_ms", "self_ms")
	for _, k := range kinds {
		a := tr.agg[k]
		fmt.Fprintf(w, "  %-20s %-8s %12d %12.1f %12.1f\n", k, k.category(), a.count, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// writeChrome writes the kept spans as a Chrome trace_event file: one
// process per world, one thread per guest task (0 = the benchmark).
func (tr *tracer) writeChrome(w io.Writer, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(tr.spans))
	for _, s := range tr.spans {
		cat := s.kind.category()
		if cat == "" {
			cat = "bench"
		}
		events = append(events, event{Name: s.kind.String(), Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: s.world, Tid: s.tid,
			Args: map[string]any{"workload": workload, "world": s.world, "self_us": float64(s.self) / 1e3}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
