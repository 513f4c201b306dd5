// Package mmu implements the paging hardware of the simulated machine:
// page-table entries, three-level radix page tables that store each entry
// packed into 8 bytes, and per-CPU TLBs with explicit invalidation. Two
// kinds of page table are built from these pieces:
//
//   - guest page tables, written by the guest kernel, mapping VPN -> GPPN;
//   - shadow page tables, written only by the VMM, mapping VPN -> MPN.
//
// The entry format is shared; the interpretation of the target page number
// differs by table kind, exactly as on real hardware running under a
// shadow-paging VMM.
package mmu

import "fmt"

// Flags is the permission/status bit set of a PTE.
type Flags uint8

// PTE flag bits.
const (
	FlagPresent Flags = 1 << iota
	FlagWritable
	FlagUser // accessible from user mode
	FlagAccessed
	FlagDirty
	FlagNX // not executable
)

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// String renders flags compactly, e.g. "P W U a d".
func (f Flags) String() string {
	out := ""
	add := func(bit Flags, s string) {
		if f.Has(bit) {
			out += s
		} else {
			out += "-"
		}
	}
	add(FlagPresent, "P")
	add(FlagWritable, "W")
	add(FlagUser, "U")
	add(FlagAccessed, "a")
	add(FlagDirty, "d")
	add(FlagNX, "x")
	return out
}

// PTE is one page-table entry. PN is a GPPN in guest tables and an MPN in
// shadow tables.
type PTE struct {
	PN    uint64
	Flags Flags
}

// Present reports whether the entry maps a page.
func (p PTE) Present() bool { return p.Flags.Has(FlagPresent) }

// String implements fmt.Stringer.
func (p PTE) String() string { return fmt.Sprintf("pn=%#x %s", p.PN, p.Flags) }

// AccessType distinguishes the three access kinds the MMU checks.
type AccessType uint8

// Access kinds.
const (
	AccessRead AccessType = iota
	AccessWrite
	AccessExec
)

// String implements fmt.Stringer.
func (a AccessType) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "?"
}

// FaultReason explains why a translation failed.
type FaultReason uint8

// Fault reasons, in increasing order of severity.
const (
	FaultNotPresent FaultReason = iota
	FaultProtection             // present but permission denied
)

// String implements fmt.Stringer.
func (r FaultReason) String() string {
	if r == FaultNotPresent {
		return "not-present"
	}
	return "protection"
}

// Fault describes a failed translation. The MMU raises it; the VMM decides
// whether it is a hidden (shadow) fault or a true guest fault.
type Fault struct {
	VPN    uint64
	Access AccessType
	Reason FaultReason
	User   bool // access issued from user mode
}

// Error implements the error interface so faults can flow through error
// returns inside the VMM; they never escape to library users.
func (f *Fault) Error() string {
	mode := "kernel"
	if f.User {
		mode = "user"
	}
	return fmt.Sprintf("page fault: vpn=%#x %s %s (%s mode)", f.VPN, f.Access, f.Reason, mode)
}

// CheckPerms reports whether pte allows the access and, when it does not,
// the fault the access raises. The fault comes back by value, so a caller
// that only tests ok (the hit and walk probes of a translation) builds
// nothing on the heap.
func CheckPerms(vpn uint64, pte PTE, access AccessType, user bool) (Fault, bool) {
	if !pte.Present() {
		return Fault{VPN: vpn, Access: access, Reason: FaultNotPresent, User: user}, false
	}
	if user && !pte.Flags.Has(FlagUser) ||
		access == AccessWrite && !pte.Flags.Has(FlagWritable) ||
		access == AccessExec && pte.Flags.Has(FlagNX) {
		return Fault{VPN: vpn, Access: access, Reason: FaultProtection, User: user}, false
	}
	return Fault{}, true
}
