package sim

// CostModel holds the calibrated cycle costs for every primitive operation
// the simulated machine performs. The absolute values are loosely modelled on
// a mid-2000s x86 running under a software VMM (the platform of the original
// Overshadow prototype); what matters for reproducing the paper's results is
// the *relative* magnitudes — e.g. that a world switch costs hundreds of
// cycles while encrypting a 4 KiB page costs tens of thousands.
type CostModel struct {
	// Plain computation charged by workloads per abstract "unit of work".
	ComputeUnit Cycles

	// Memory system.
	MemAccess Cycles // cache-modelled average cost of one load/store
	TLBHit    Cycles // added cost of a TLB lookup that hits
	TLBMiss   Cycles // shadow page-table walk on a TLB miss
	TLBFlush  Cycles // full TLB invalidation
	TLBEvict  Cycles // single-entry invalidation
	// TLBShootdown is the cross-CPU invalidation cost: one IPI round paid by
	// the initiating vCPU per remote vCPU whose TLB actually held stale
	// entries (lazy shootdown). Unused — hence never charged — on a
	// single-vCPU machine.
	TLBShootdown Cycles

	// Traps and privilege transitions.
	SyscallTrap   Cycles // guest user -> guest kernel, no VMM involvement
	SyscallReturn Cycles
	WorldSwitch   Cycles // guest -> VMM or VMM -> guest transition
	Hypercall     Cycles // explicit shim -> VMM call (incl. both switches)
	HiddenFault   Cycles // VMM-internal shadow fault dispatch cost
	GuestFault    Cycles // delivering a true page fault to the guest kernel

	// Secure control transfer.
	CTCSave    Cycles // save + scrub cloaked thread context registers
	CTCRestore Cycles // restore + verify cloaked thread context

	// Cloaking crypto, charged per page plus per byte.
	AESSetup   Cycles // key schedule / IV setup per page operation
	AESPerByte Cycles
	SHASetup   Cycles
	SHAPerByte Cycles

	// Metadata cache.
	MetaCacheHit  Cycles
	MetaCacheMiss Cycles // fetch/verify a metadata record from the spill area

	// Shadow page-table maintenance.
	ShadowFill   Cycles // install one shadow PTE
	ShadowDrop   Cycles // remove one shadow PTE (all views)
	ShadowSwitch Cycles // change the active shadow context

	// Guest kernel operations.
	ContextSwitch Cycles // guest scheduler switching processes
	PageZero      Cycles // zeroing a fresh page
	PageCopy      Cycles // copying a 4 KiB page (COW, fork)

	// Disk (per operation plus per byte); used for the FS image and swap.
	DiskSeek    Cycles
	DiskPerByte Cycles

	// Cross-machine transfer channel (live migration). Charged only while a
	// sealed checkpoint moves between machines, so non-migrating runs never
	// touch these entries. The channel is slower per byte than local disk
	// and pays a connection setup once per transfer.
	TransferSetup   Cycles
	TransferPerByte Cycles
}

// DefaultCostModel returns the calibrated cost model used by all
// experiments unless an ablation overrides specific entries.
func DefaultCostModel() CostModel {
	return CostModel{
		ComputeUnit: 1,

		MemAccess:    4,
		TLBHit:       0,
		TLBMiss:      60,
		TLBFlush:     200,
		TLBEvict:     30,
		TLBShootdown: 1500,

		SyscallTrap:   250,
		SyscallReturn: 250,
		WorldSwitch:   800,
		Hypercall:     2000,
		HiddenFault:   400,
		GuestFault:    600,

		CTCSave:    300,
		CTCRestore: 350,

		AESSetup:   300,
		AESPerByte: 10,
		SHASetup:   200,
		SHAPerByte: 8,

		MetaCacheHit:  20,
		MetaCacheMiss: 900,

		ShadowFill:   120,
		ShadowDrop:   100,
		ShadowSwitch: 150,

		ContextSwitch: 1200,
		PageZero:      900,
		PageCopy:      1100,

		DiskSeek:    500000,
		DiskPerByte: 12,

		TransferSetup:   800000,
		TransferPerByte: 40,
	}
}

// PageCryptCost reports the cycle cost of one AES pass over n bytes.
func (m CostModel) PageCryptCost(n int) Cycles {
	return m.AESSetup + Cycles(n)*m.AESPerByte
}

// PageHashCost reports the cycle cost of one SHA-256 pass over n bytes.
func (m CostModel) PageHashCost(n int) Cycles {
	return m.SHASetup + Cycles(n)*m.SHAPerByte
}
