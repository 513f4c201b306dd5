// Package shim implements Overshadow's in-application shim: the small
// trusted runtime loaded into every cloaked process that mediates all
// interaction between the protected application and the untrusted guest
// kernel.
//
// The shim has three jobs, mirroring the paper:
//
//  1. Identity and setup — create the protection domain, bind the thread's
//     cloaked context, and register the cloaked regions (heap, stack,
//     anonymous mappings) and the explicitly uncloaked scratch region used
//     for marshalling.
//  2. Syscall adaptation — pass-through calls that carry no application
//     data (getpid, yield, ...), marshalled calls that bounce buffers
//     through the uncloaked scratch region (read/write on ordinary files,
//     pipes), and emulated calls implemented entirely inside the shim over
//     cloaked memory-mapped windows (read/write on cloaked files).
//  3. Process lifecycle — fork (hypercall-assisted re-cloaking of the
//     child), exec (domain teardown and re-attach), exit (domain teardown),
//     and signal-handler trampolining.
//
// The shim is part of the trusted computing base; it runs "inside" the
// protected application and uses the hypercall interface directly.
package shim

import (
	"crypto/sha256"

	"overshadow/internal/cloak"
	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Options configures shim behavior.
type Options struct {
	// CloakPath decides which files get the cloaked (mmap-emulated) I/O
	// path. Nil means paths under "/secret/".
	CloakPath func(path string) bool
	// WindowPages is the size of a cloaked file window (default 64 pages).
	WindowPages uint64
}

func (o Options) cloaks(path string) bool {
	if o.CloakPath != nil {
		return o.CloakPath(path)
	}
	return len(path) >= 8 && path[:8] == "/secret/"
}

func (o Options) windowPages() uint64 {
	if o.WindowPages == 0 {
		return 64
	}
	return o.WindowPages
}

// Runtime returns the cloak runtime hook the guest kernel invokes to run a
// cloaked program body under the shim.
func Runtime(opts Options) guestos.CloakRuntime {
	return func(uc *guestos.UserCtx, body guestos.Program) {
		s := attach(uc, opts)
		body(s)
	}
}

// Ctx is the shim's implementation of guestos.Env for a cloaked process.
type Ctx struct {
	uc   *guestos.UserCtx
	hv   *vmm.VMM
	as   *vmm.AddressSpace
	conn *vmm.DomainConn // typed hypercall handle for the process's domain
	opts Options

	domain   cloak.DomainID
	heapRes  cloak.ResourceID
	stackRes cloak.ResourceID

	scratchVA    mach.Addr
	scratchBytes int

	// anonRegions tracks shim-allocated cloaked mappings by base VPN.
	anonRegions map[uint64]anonRegion
	// shmRegions tracks protected shared-memory attachments by base VPN.
	shmRegions map[uint64]shmRegion
	// cfiles tracks cloaked-file state by fd.
	cfiles map[int]*cloakedFile
}

type anonRegion struct {
	res   cloak.ResourceID
	pages uint64
}

type shmRegion struct {
	pages uint64
}

var _ guestos.Env = (*Ctx)(nil)

// attach performs cloaked-process startup: domain creation, thread binding,
// and region registration. It must run before any application data touches
// memory.
func attach(uc *guestos.UserCtx, opts Options) *Ctx {
	k := uc.Kernel()
	s := &Ctx{
		uc:           uc,
		hv:           k.VMM(),
		as:           uc.Proc().AddressSpace(),
		opts:         opts,
		scratchVA:    mach.Addr(guestos.LayoutScratch * mach.PageSize),
		scratchBytes: int(guestos.LayoutScratchLen) * mach.PageSize,
		anonRegions:  make(map[uint64]anonRegion),
		shmRegions:   make(map[uint64]shmRegion),
		cfiles:       make(map[int]*cloakedFile),
	}
	var err error
	s.conn, err = s.hv.HCCreateDomain(s.as)
	if err != nil {
		// No domain, no cloaking: the process cannot run protected. This is
		// a typed availability loss for this process only (e.g. the domain
		// quota under a spawn storm) — exit like a killed task; the machine
		// and every sibling domain keep running.
		uc.Exit(128 + int(guestos.SIGKILL)) // never returns
	}
	s.domain = s.conn.Domain()
	uc.Thread().Domain = s.domain
	s.world().CPU().SetTaskDomain(uint32(s.domain))

	// Measure the application identity and record it with the VMM — the
	// verified-startup step: relying parties ask the VMM, not the OS, what
	// runs in this domain.
	digest := sha256.Sum256([]byte("overshadow-program:" + uc.Proc().Name()))
	s.mustSetup(func() error { return s.conn.RecordIdentity(digest) })

	s.heapRes = s.mustResource()
	s.stackRes = s.mustResource()
	s.mustRegister(vmm.Region{
		BaseVPN:  guestos.LayoutHeapBase,
		Pages:    guestos.LayoutHeapMax - guestos.LayoutHeapBase,
		Resource: s.heapRes, Cloaked: true,
	})
	s.mustRegister(vmm.Region{
		BaseVPN:  guestos.LayoutStackTop - guestos.LayoutStackMax,
		Pages:    guestos.LayoutStackMax,
		Resource: s.stackRes, Cloaked: true,
	})
	s.mustRegister(vmm.Region{
		BaseVPN: guestos.LayoutScratch,
		Pages:   guestos.LayoutScratchLen,
		// Uncloaked: this is the marshalling buffer the kernel may read.
	})
	uc.Proc().AddExitHook(s.onExit)
	return s
}

// mustResource allocates a cloaked resource, retrying transient hypervisor
// faults; persistent failure exits the process gracefully.
func (s *Ctx) mustResource() cloak.ResourceID {
	var r cloak.ResourceID
	s.mustSetup(func() error {
		var err error
		r, err = s.conn.AllocResource()
		return err
	})
	return r
}

// mustRegister registers a region, retrying transient hypervisor faults;
// persistent failure exits the process gracefully.
func (s *Ctx) mustRegister(r vmm.Region) {
	s.mustSetup(func() error { return s.conn.RegisterRegion(r) })
}

// onExit tears down the shim's cloaking state when the process dies. It
// runs before the kernel reclaims any resource, on the process's own
// goroutine.
func (s *Ctx) onExit() {
	for fd := range s.cfiles {
		// Best-effort flush of cloaked files (ignore errors on exit).
		//overlint:allow errnodiscipline -- exit path: the process is gone, a flush failure has no one left to report to
		s.flushCloaked(fd)
	}
	if s.hv.DomainSpaceCount(s.domain) <= 1 {
		// Last address space in the domain: destroy it (zeroes plaintext,
		// purges metadata).
		s.conn.Destroy()
	} else {
		// Siblings still alive: release only our private resources.
		//overlint:allow errnodiscipline -- exit path: resources are known-registered, release cannot meaningfully fail here
		s.conn.ReleaseResource(s.heapRes, guestos.LayoutHeapMax-guestos.LayoutHeapBase)
		//overlint:allow errnodiscipline -- exit path: resources are known-registered, release cannot meaningfully fail here
		s.conn.ReleaseResource(s.stackRes, guestos.LayoutStackMax)
		for _, ar := range s.anonRegions {
			//overlint:allow errnodiscipline -- exit path: resources are known-registered, release cannot meaningfully fail here
			s.conn.ReleaseResource(ar.res, ar.pages)
		}
	}
}

// --- Identity / trivial pass-through ----------------------------------------

// Pid implements Env.
func (s *Ctx) Pid() guestos.Pid { return s.uc.Pid() }

// PPid implements Env.
func (s *Ctx) PPid() guestos.Pid { return s.uc.PPid() }

// Cloaked implements Env.
func (s *Ctx) Cloaked() bool { return true }

// Args implements Env.
func (s *Ctx) Args() []string { return s.uc.Args() }

// Time implements Env.
func (s *Ctx) Time() sim.Cycles { return s.uc.Time() }

// Compute implements Env.
func (s *Ctx) Compute(units uint64) { s.uc.Compute(units) }

// Null implements Env.
func (s *Ctx) Null() { s.uc.Null() }

// Yield implements Env.
func (s *Ctx) Yield() { s.uc.Yield() }

// Sleep implements Env.
func (s *Ctx) Sleep(cycles uint64) { s.uc.Sleep(cycles) }

// --- Memory -------------------------------------------------------------------

// ReadMem implements Env; cloaked pages decrypt transparently in the
// application view.
func (s *Ctx) ReadMem(va mach.Addr, buf []byte) { s.uc.ReadMem(va, buf) }

// WriteMem implements Env.
func (s *Ctx) WriteMem(va mach.Addr, buf []byte) { s.uc.WriteMem(va, buf) }

// Load64 implements Env.
func (s *Ctx) Load64(va mach.Addr) uint64 { return s.uc.Load64(va) }

// Store64 implements Env.
func (s *Ctx) Store64(va mach.Addr, val uint64) { s.uc.Store64(va, val) }

// Sbrk implements Env; the heap region is pre-registered. The returned
// break is kernel-controlled: a lying break outside the registered heap
// would make the application treat unprotected memory as cloaked, so it is
// validated before the application ever sees it.
func (s *Ctx) Sbrk(deltaPages int64) (mach.Addr, error) {
	old, err := s.uc.Sbrk(deltaPages)
	if err != nil {
		return 0, s.validateErrno("sbrk", err)
	}
	if verr := s.validateHeapBrk("sbrk", old, deltaPages); verr != nil {
		return 0, verr
	}
	return old, nil
}

// Alloc implements Env: anonymous mappings get their own cloaked region.
// The kernel-returned base is validated against the shim's view before the
// region is registered or the address returned.
func (s *Ctx) Alloc(pages int) (mach.Addr, error) {
	base, err := s.uc.Alloc(pages)
	if err != nil {
		return 0, s.validateErrno("alloc", err)
	}
	if verr := s.validateMappedBase("alloc", base, uint64(pages)); verr != nil {
		return 0, verr
	}
	res := s.mustResource()
	s.mustRegister(vmm.Region{
		BaseVPN: mach.PageOf(base), Pages: uint64(pages),
		Resource: res, Cloaked: true,
	})
	s.anonRegions[mach.PageOf(base)] = anonRegion{res: res, pages: uint64(pages)}
	return base, nil
}

// Free implements Env.
func (s *Ctx) Free(base mach.Addr) error {
	vpn := mach.PageOf(base)
	if sr, ok := s.shmRegions[vpn]; ok {
		// Shared-memory detach: unregister our view; the vault (and the
		// object's pages) outlive us for the other attachments.
		_ = sr
		if err := s.retryTransient(func() error { return s.conn.UnregisterRegion(vpn) }); err != nil {
			return err
		}
		delete(s.shmRegions, vpn)
		return s.uc.Free(base)
	}
	ar, ok := s.anonRegions[vpn]
	if !ok {
		return guestos.EINVAL
	}
	if err := s.retryTransient(func() error { return s.conn.UnregisterRegion(vpn) }); err != nil {
		return err
	}
	if err := s.retryTransient(func() error { return s.conn.ReleaseResource(ar.res, ar.pages) }); err != nil {
		return err
	}
	delete(s.anonRegions, vpn)
	return s.uc.Free(base)
}

// ShmAttach implements Env: the attachment's region is bound to the
// object's stable vault identity, so every cloaked attacher shares one
// plaintext view while the kernel handles only ciphertext.
func (s *Ctx) ShmAttach(name string, pages int) (mach.Addr, error) {
	base, err := s.uc.ShmAttach(name, pages)
	if err != nil {
		return 0, s.validateErrno("shm_attach", err)
	}
	if verr := s.validateMappedBase("shm_attach", base, uint64(pages)); verr != nil {
		return 0, verr
	}
	vault, res := s.hv.HCFileResource(guestos.ShmUID(name))
	s.mustRegister(vmm.Region{
		BaseVPN: mach.PageOf(base), Pages: uint64(pages),
		Resource: res, Cloaked: true, Domain: vault,
	})
	s.shmRegions[mach.PageOf(base)] = shmRegion{pages: uint64(pages)}
	return base, nil
}

// --- Process control ------------------------------------------------------------

// forkSnapshot is the parent shim state frozen at fork time. The child's
// context is built from this snapshot, not the parent's live maps: the
// parent may mutate its mappings before the child first runs, and those
// post-fork mappings do not exist in the child's copied address space
// (inheriting them live would make the validation layer see phantom
// aliases in the child).
type forkSnapshot struct {
	anon map[uint64]anonRegion
	shm  map[uint64]shmRegion
	cf   map[int]*cloakedFile
}

// Fork implements Env: the kernel copies the address space (as ciphertext),
// then the shim's onPrepared hypercall re-cloaks the child before it runs.
func (s *Ctx) Fork(child func(guestos.Env)) (guestos.Pid, error) {
	var rmap map[cloak.ResourceID]cloak.ResourceID
	var childConn *vmm.DomainConn
	var snap forkSnapshot
	parent := s
	pid, err := s.uc.ForkWith(func(cuc *guestos.UserCtx) {
		cs := attachForked(cuc, parent, childConn, rmap, snap)
		child(cs)
	}, func(pas, cas *vmm.AddressSpace) error {
		// Fork time: freeze the shim's view alongside the address-space copy.
		snap = forkSnapshot{
			anon: make(map[uint64]anonRegion, len(s.anonRegions)),
			shm:  make(map[uint64]shmRegion, len(s.shmRegions)),
			cf:   make(map[int]*cloakedFile, len(s.cfiles)),
		}
		for vpn, ar := range s.anonRegions {
			snap.anon[vpn] = ar
		}
		for vpn, sr := range s.shmRegions {
			snap.shm[vpn] = sr
		}
		for fd, cf := range s.cfiles {
			dup := *cf
			snap.cf[fd] = &dup
		}
		m, cc, err := s.conn.CloneInto(cas)
		rmap, childConn = m, cc
		return err
	})
	return pid, err
}

// attachForked builds the child's shim context after a fork: same domain,
// remapped private resources, fork-time cloaked-file table.
func attachForked(cuc *guestos.UserCtx, parent *Ctx, conn *vmm.DomainConn, rmap map[cloak.ResourceID]cloak.ResourceID, snap forkSnapshot) *Ctx {
	cs := &Ctx{
		uc:           cuc,
		hv:           parent.hv,
		as:           cuc.Proc().AddressSpace(),
		conn:         conn,
		opts:         parent.opts,
		domain:       conn.Domain(),
		scratchVA:    parent.scratchVA,
		scratchBytes: parent.scratchBytes,
		anonRegions:  make(map[uint64]anonRegion),
		shmRegions:   snap.shm,
		cfiles:       snap.cf,
	}
	cuc.Thread().Domain = cs.domain
	cs.world().CPU().SetTaskDomain(uint32(cs.domain))
	remap := func(r cloak.ResourceID) cloak.ResourceID {
		if nr, ok := rmap[r]; ok {
			return nr
		}
		return r
	}
	cs.heapRes = remap(parent.heapRes)
	cs.stackRes = remap(parent.stackRes)
	for vpn, ar := range snap.anon {
		cs.anonRegions[vpn] = anonRegion{res: remap(ar.res), pages: ar.pages}
	}
	cuc.Proc().AddExitHook(cs.onExit)
	return cs
}

// SpawnThread implements Env: the new thread shares this process's domain
// and shim state; its fresh hardware context is bound to the domain before
// the body runs, so its registers are CTC-protected from the first trap.
func (s *Ctx) SpawnThread(body func(guestos.Env)) (guestos.Pid, error) {
	return s.uc.SpawnThreadWith(func(tuc *guestos.UserCtx) {
		ts := *s // share maps (cfiles, anonRegions) and identities
		ts.uc = tuc
		tuc.Thread().Domain = s.domain
		ts.world().CPU().SetTaskDomain(uint32(s.domain))
		body(&ts)
	})
}

// JoinThread implements Env.
func (s *Ctx) JoinThread(tid guestos.Pid) error { return s.uc.JoinThread(tid) }

// ExitThread implements Env.
func (s *Ctx) ExitThread() { s.uc.ExitThread() }

// Exec implements Env: the domain dies with the old image; the new image's
// shim re-attaches via the kernel's cloak runtime.
func (s *Ctx) Exec(name string, args []string) error {
	for fd := range s.cfiles {
		if err := s.flushCloaked(fd); err != nil {
			return err
		}
	}
	if s.hv.DomainSpaceCount(s.domain) <= 1 {
		s.conn.Destroy()
	}
	s.uc.Proc().ClearExitHooks()
	return s.uc.Exec(name, args)
}

// Exit implements Env.
func (s *Ctx) Exit(status int) { s.uc.Exit(status) }

// WaitPid implements Env.
func (s *Ctx) WaitPid(pid guestos.Pid) (guestos.Pid, int, error) { return s.uc.WaitPid(pid) }

// Kill implements Env.
func (s *Ctx) Kill(pid guestos.Pid, sig guestos.Signal) error { return s.uc.Kill(pid, sig) }

// Signal implements Env: the handler is trampolined so it runs against the
// shim environment, never the raw kernel context.
func (s *Ctx) Signal(sig guestos.Signal, h guestos.SigHandler) error {
	if h == nil {
		return s.uc.Signal(sig, nil)
	}
	return s.uc.Signal(sig, func(_ guestos.Env, got guestos.Signal) {
		h(s, got)
	})
}

// world returns the simulation services of the kernel this shim runs on.
func (s *Ctx) world() *sim.World { return s.uc.Kernel().World() }
