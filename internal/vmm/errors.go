package vmm

import (
	"errors"
	"fmt"
)

// Typed errors of the hypercall surface. Callers match them with errors.Is
// (sentinels) and errors.As (*RegionError); the shim and the tests never
// compare error strings.
var (
	// ErrNoDomain: the operation needs a live protection domain, but the
	// address space has none (never bound, or the domain was destroyed and
	// the DomainConn handle is stale).
	ErrNoDomain = errors.New("vmm: address space has no domain")
	// ErrDomainBound: the address space is already bound to a domain
	// (double HCCreateDomain, or cloning into a bound child).
	ErrDomainBound = errors.New("vmm: address space already bound to a domain")
	// ErrAlreadyMeasured: the domain's identity was recorded before; identity
	// is write-once so a compromised OS cannot re-measure a domain.
	ErrAlreadyMeasured = errors.New("vmm: domain already measured")
	// ErrNoRegion: no registered region starts at the given base VPN.
	ErrNoRegion = errors.New("vmm: no region registered at this address")
	// ErrRegionOverlap: the region collides with an existing registration.
	ErrRegionOverlap = errors.New("vmm: region overlaps an existing region")
	// ErrNoResource: a cloaked region was declared without a resource id.
	ErrNoResource = errors.New("vmm: cloaked region needs a resource id")
	// ErrRegionRange: the region is empty or does not fit the page table's
	// VPN range [0, mmu.MaxVPN] (including a BaseVPN+Pages that wraps).
	ErrRegionRange = errors.New("vmm: region empty or outside the VPN range")
)

// RegionError decorates a region-registration failure with the offending
// region (and, for overlaps, the conflicting registration). It wraps one of
// the sentinel errors above, so errors.Is still works through it.
type RegionError struct {
	Op       string  // "register" or "unregister"
	Region   Region  // the region the caller supplied
	Conflict *Region // the existing registration, for ErrRegionOverlap
	Err      error   // sentinel cause
}

// Error implements error.
func (e *RegionError) Error() string {
	if e.Conflict != nil {
		return fmt.Sprintf("vmm: %s region [%#x,+%d): %v with [%#x,+%d)",
			e.Op, e.Region.BaseVPN, e.Region.Pages, e.Err,
			e.Conflict.BaseVPN, e.Conflict.Pages)
	}
	return fmt.Sprintf("vmm: %s region [%#x,+%d): %v",
		e.Op, e.Region.BaseVPN, e.Region.Pages, e.Err)
}

// Unwrap exposes the sentinel cause to errors.Is/errors.As.
func (e *RegionError) Unwrap() error { return e.Err }

// ResourceFault reports a resource-layer failure that is NOT a security
// violation: machine memory misconfiguration, a guest PTE pointing beyond
// guest-physical memory, or an injected transient hypercall failure. Callers
// match it with errors.As; Transient faults are safe to retry (the shim's
// secure-I/O path does, with bounded sim-clock backoff), permanent ones must
// abort the operation.
type ResourceFault struct {
	Op        string // the operation that faulted ("translate", "alloc_resource", ...)
	Detail    string
	Transient bool
}

// Error implements error.
func (e *ResourceFault) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("vmm: %s resource fault in %s: %s", kind, e.Op, e.Detail)
}
