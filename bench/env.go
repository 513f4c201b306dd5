package main

import (
	"encoding/binary"
	"slices"

	"overshadow/internal/core"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
)

// FNV-1a 64-bit parameters. The digest folds 64-bit words rather than
// bytes: a digest per word keeps the check cheap next to the simulated
// access it follows.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (t *task) mix(v uint64) { t.digest = (t.digest ^ v) * fnvPrime }

func (t *task) mixBytes(b []byte) {
	for len(b) >= 8 {
		t.mix(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	var tail [8]byte
	copy(tail[:], b)
	t.mix(binary.LittleEndian.Uint64(tail[:]) ^ uint64(len(b))<<56)
}

func (t *task) mixResult(n int, err error) {
	if err != nil {
		n = -1
	}
	t.mix(uint64(n))
}

// app is the benchmark's view of the guest programs on one machine: a task
// per guest task with its data digest, and how the top-level programs
// (the ones the benchmark spawned) ended.
type app struct {
	tr     *tracer // nil outside the traced pass
	tasks  []*task
	clean  int // top-level programs that exited with status 0
	status int // the last top-level exit status; -1 until one ends
}

func newApp(tr *tracer) *app { return &app{tr: tr, status: -1} }

func (a *app) ended(status int) {
	a.status = status
	if status == 0 {
		a.clean++
	}
}

func (a *app) env(inner core.Env) *appEnv {
	var t *task
	if a.tr != nil {
		t = a.tr.newTask(int(inner.Pid()))
	} else {
		t = &task{tid: int(inner.Pid())}
	}
	t.digest = fnvOffset
	a.tasks = append(a.tasks, t)
	return &appEnv{inner: inner, t: t, app: a}
}

// wrap returns prog as the machine sees it: every Env call goes through
// appEnv, and a normal return is the implicit exit(0).
func (a *app) wrap(prog core.Program) core.Program {
	return func(inner core.Env) {
		e := a.env(inner)
		e.t.spawned = true
		prog(e)
		a.ended(0)
	}
}

// memOps counts the app's memory accesses (each one simulated charge).
func (a *app) memOps() uint64 {
	var n uint64
	for _, t := range a.tasks {
		n += t.memOps
	}
	return n
}

// digest combines the task digests in task-id order: the app data the
// whole run observed, independent of how the scheduler interleaved it.
func (a *app) digest() uint64 {
	ts := slices.Clone(a.tasks)
	slices.SortStableFunc(ts, func(x, y *task) int { return x.tid - y.tid })
	h := &task{digest: fnvOffset}
	for _, t := range ts {
		h.mix(uint64(t.tid))
		h.mix(t.digest)
	}
	return h.digest
}

// appEnv is the Env a wrapped guest program receives. It forwards every
// call, folds the app-visible results (loaded words, read bytes, transfer
// counts) into its task's digest, and in the traced pass brackets each
// call in an env.<Method> span.
type appEnv struct {
	inner core.Env
	t     *task
	app   *app
}

var _ core.Env = (*appEnv)(nil)

func (e *appEnv) begin(k spanKind) bool {
	if e.app.tr == nil {
		return false
	}
	e.app.tr.begin(e.t, k)
	return true
}

func (e *appEnv) end(on bool) {
	if on {
		e.app.tr.end(e.t)
	}
}

func (e *appEnv) child(body func(core.Env)) func(core.Env) {
	return func(c core.Env) { body(e.app.env(c)) }
}

func (e *appEnv) Pid() core.Pid    { return e.inner.Pid() }
func (e *appEnv) PPid() core.Pid   { return e.inner.PPid() }
func (e *appEnv) Cloaked() bool    { return e.inner.Cloaked() }
func (e *appEnv) Args() []string   { return e.inner.Args() }
func (e *appEnv) Time() sim.Cycles { return e.inner.Time() }
func (e *appEnv) Compute(u uint64) { s := e.begin(opCompute); e.inner.Compute(u); e.end(s) }
func (e *appEnv) Store64(va core.Addr, v uint64) {
	s := e.begin(opStore64)
	e.inner.Store64(va, v)
	e.end(s)
	e.t.memOps++
}

func (e *appEnv) Load64(va core.Addr) uint64 {
	s := e.begin(opLoad64)
	v := e.inner.Load64(va)
	e.end(s)
	e.t.mix(v)
	e.t.memOps++
	return v
}

func (e *appEnv) ReadMem(va core.Addr, buf []byte) {
	s := e.begin(opReadMem)
	e.inner.ReadMem(va, buf)
	e.end(s)
	e.t.mixBytes(buf)
	e.t.memOps++
}

func (e *appEnv) WriteMem(va core.Addr, buf []byte) {
	s := e.begin(opWriteMem)
	e.inner.WriteMem(va, buf)
	e.end(s)
	e.t.memOps++
}

func (e *appEnv) Alloc(pages int) (core.Addr, error) {
	s := e.begin(opAlloc)
	va, err := e.inner.Alloc(pages)
	e.end(s)
	return va, err
}

func (e *appEnv) Free(base core.Addr) error {
	s := e.begin(opFree)
	err := e.inner.Free(base)
	e.end(s)
	return err
}

func (e *appEnv) Sbrk(delta int64) (core.Addr, error) {
	s := e.begin(opSbrk)
	va, err := e.inner.Sbrk(delta)
	e.end(s)
	return va, err
}

func (e *appEnv) ShmAttach(name string, pages int) (core.Addr, error) {
	s := e.begin(opShmAttach)
	va, err := e.inner.ShmAttach(name, pages)
	e.end(s)
	return va, err
}

func (e *appEnv) Open(path string, flags int) (int, error) {
	s := e.begin(opOpen)
	fd, err := e.inner.Open(path, flags)
	e.end(s)
	return fd, err
}

func (e *appEnv) Close(fd int) error {
	s := e.begin(opClose)
	err := e.inner.Close(fd)
	e.end(s)
	return err
}

func (e *appEnv) Read(fd int, va core.Addr, n int) (int, error) {
	s := e.begin(opRead)
	m, err := e.inner.Read(fd, va, n)
	e.end(s)
	e.t.mixResult(m, err)
	return m, err
}

func (e *appEnv) Write(fd int, va core.Addr, n int) (int, error) {
	s := e.begin(opWrite)
	m, err := e.inner.Write(fd, va, n)
	e.end(s)
	e.t.mixResult(m, err)
	return m, err
}

func (e *appEnv) Pread(fd int, va core.Addr, n int, off uint64) (int, error) {
	s := e.begin(opPread)
	m, err := e.inner.Pread(fd, va, n, off)
	e.end(s)
	e.t.mixResult(m, err)
	return m, err
}

func (e *appEnv) Pwrite(fd int, va core.Addr, n int, off uint64) (int, error) {
	s := e.begin(opPwrite)
	m, err := e.inner.Pwrite(fd, va, n, off)
	e.end(s)
	e.t.mixResult(m, err)
	return m, err
}

func (e *appEnv) Lseek(fd int, off int64, whence int) (uint64, error) {
	s := e.begin(opLseek)
	pos, err := e.inner.Lseek(fd, off, whence)
	e.end(s)
	return pos, err
}

func (e *appEnv) Stat(path string) (core.StatInfo, error) {
	s := e.begin(opStat)
	st, err := e.inner.Stat(path)
	e.end(s)
	return st, err
}

func (e *appEnv) Fstat(fd int) (core.StatInfo, error) {
	s := e.begin(opFstat)
	st, err := e.inner.Fstat(fd)
	e.end(s)
	return st, err
}

func (e *appEnv) Unlink(path string) error {
	s := e.begin(opUnlink)
	err := e.inner.Unlink(path)
	e.end(s)
	return err
}

func (e *appEnv) Mkdir(path string) error {
	s := e.begin(opMkdir)
	err := e.inner.Mkdir(path)
	e.end(s)
	return err
}

func (e *appEnv) Dup(fd int) (int, error) {
	s := e.begin(opDup)
	nfd, err := e.inner.Dup(fd)
	e.end(s)
	return nfd, err
}

func (e *appEnv) Pipe() (int, int, error) {
	s := e.begin(opPipe)
	r, w, err := e.inner.Pipe()
	e.end(s)
	return r, w, err
}

func (e *appEnv) Truncate(path string, size uint64) error {
	s := e.begin(opTruncate)
	err := e.inner.Truncate(path, size)
	e.end(s)
	return err
}

func (e *appEnv) ReadDir(path string) ([]string, error) {
	s := e.begin(opReadDir)
	names, err := e.inner.ReadDir(path)
	e.end(s)
	return names, err
}

func (e *appEnv) Fsync(fd int) error {
	s := e.begin(opFsync)
	err := e.inner.Fsync(fd)
	e.end(s)
	return err
}

func (e *appEnv) Null() { s := e.begin(opNull); e.inner.Null(); e.end(s) }

func (e *appEnv) SpawnThread(body func(core.Env)) (core.Pid, error) {
	s := e.begin(opSpawnThread)
	tid, err := e.inner.SpawnThread(e.child(body))
	e.end(s)
	return tid, err
}

func (e *appEnv) JoinThread(tid core.Pid) error {
	s := e.begin(opJoinThread)
	err := e.inner.JoinThread(tid)
	e.end(s)
	return err
}

func (e *appEnv) ExitThread() {
	if e.app.tr != nil {
		e.app.tr.exit(e.t, opExitThread)
	}
	e.inner.ExitThread()
}

func (e *appEnv) Fork(child func(core.Env)) (core.Pid, error) {
	s := e.begin(opFork)
	pid, err := e.inner.Fork(e.child(child))
	e.end(s)
	return pid, err
}

func (e *appEnv) Exec(name string, args []string) error {
	s := e.begin(opExec)
	err := e.inner.Exec(name, args)
	e.end(s)
	return err
}

func (e *appEnv) WaitPid(pid core.Pid) (core.Pid, int, error) {
	s := e.begin(opWaitPid)
	got, status, err := e.inner.WaitPid(pid)
	e.end(s)
	e.t.mix(uint64(status))
	return got, status, err
}

func (e *appEnv) Exit(status int) {
	if e.t.spawned {
		e.app.ended(status)
	}
	if e.app.tr != nil {
		e.app.tr.exit(e.t, opExit)
	}
	e.inner.Exit(status)
}

func (e *appEnv) Kill(pid core.Pid, sig core.Signal) error {
	s := e.begin(opKill)
	err := e.inner.Kill(pid, sig)
	e.end(s)
	return err
}

// Signal wraps the handler so it, too, sees the digesting Env; it runs on
// the task that receives the signal.
func (e *appEnv) Signal(sig core.Signal, h guestos.SigHandler) error {
	s := e.begin(opSignal)
	var wrapped guestos.SigHandler
	if h != nil {
		wrapped = func(c guestos.Env, got guestos.Signal) { h(&appEnv{inner: c, t: e.t, app: e.app}, got) }
	}
	err := e.inner.Signal(sig, wrapped)
	e.end(s)
	return err
}

func (e *appEnv) Sleep(cycles uint64) { s := e.begin(opSleep); e.inner.Sleep(cycles); e.end(s) }
func (e *appEnv) Yield()              { s := e.begin(opYield); e.inner.Yield(); e.end(s) }
