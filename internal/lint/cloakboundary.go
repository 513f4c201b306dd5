package lint

import (
	"go/ast"
	"go/types"
)

// CloakBoundaryAnalyzer enforces the paper's trust boundary: the guest
// kernel (internal/guestos) is untrusted, so it must never hold the raw
// machine-memory handles or the cloaking secrets that would let it read
// plaintext of cloaked pages. Concretely, inside internal/guestos:
//
//   - the mach physical-memory layer is off limits — mach.Memory and
//     mach.MPN (machine page numbers) belong to the VMM; the kernel sees
//     only guest-physical pages (mach.GPPN) and reaches memory through
//     VMM-mediated paths (Translate, PhysRead, PhysWrite, hypercalls),
//     which run the cloaking state machine;
//   - the cloak package's key and plaintext machinery (Engine, Keyer,
//     MasterKeyer, MetaStore, Meta, ...) is off limits entirely; only the
//     opaque identifier types (DomainID, ResourceID, PageID) may pass
//     through untrusted code.
//
// A second rule applies everywhere outside internal/vmm: domain hypercalls
// must go through the typed vmm.DomainConn handle. The raw VMM.HC*
// forwarders have been removed; this rule is the backstop that keeps any
// reintroduced non-exempt HC* method from being called directly. Only the
// handle-free entry points — HCCreateDomain, which mints the handle, and
// the vault calls HCFileResource/HCDropFileResource, which have no domain
// precondition — may be called on the VMM directly.
//
// A third rule closes the converse hole: the DomainConn handle itself must
// never appear inside internal/guestos — not as a struct field, not as a
// parameter, not as a method call on a value smuggled through another
// package. The handle is the cloaked process's capability to its own
// domain; the untrusted kernel holding one could issue domain hypercalls on
// the process's behalf.
var CloakBoundaryAnalyzer = &Analyzer{
	Name: "cloakboundary",
	Doc:  "forbid untrusted guestos code from touching machine memory or cloaking secrets directly",
	Run:  runCloakBoundary,
}

const (
	machPath  = "overshadow/internal/mach"
	cloakPath = "overshadow/internal/cloak"
	vmmPath   = "overshadow/internal/vmm"
)

// forbiddenMachNames are the mach identifiers that expose machine (not
// guest-physical) memory.
var forbiddenMachNames = map[string]bool{
	"Memory": true, "NewMemory": true,
	"MPN": true,
}

// allowedCloakNames are the only cloak identifiers untrusted code may name:
// opaque IDs that carry no key or plaintext material.
var allowedCloakNames = map[string]bool{
	"DomainID": true, "ResourceID": true, "PageID": true,
}

// connExemptHypercalls are the VMM methods callers outside internal/vmm may
// invoke directly: HCCreateDomain mints the DomainConn handle, and the vault
// calls carry no domain precondition (a handle would be meaningless).
var connExemptHypercalls = map[string]bool{
	"HCCreateDomain": true, "HCFileResource": true, "HCDropFileResource": true,
}

func runCloakBoundary(pass *Pass) {
	if pass.Pkg.Path == vmmPath {
		return // the VMM is the trusted side of every boundary checked here
	}
	inGuestOS := pass.Pkg.Path == "overshadow/internal/guestos"
	info := pass.Pkg.Info
	inspect(pass.Pkg, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[ident]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case vmmPath:
			if isRawHypercall(obj) {
				pass.Report(ident.Pos(), "raw hypercall vmm.VMM.%s outside internal/vmm: go through the vmm.DomainConn handle from HCCreateDomain", obj.Name())
			} else if inGuestOS {
				// The DomainConn handle is the cloaked process's capability:
				// the untrusted kernel holding one (a local, a struct field, a
				// method call on a smuggled value) could issue domain
				// hypercalls on the process's behalf.
				if obj.Name() == "DomainConn" {
					pass.Report(ident.Pos(), "untrusted guestos code references vmm.DomainConn: the domain handle is the cloaked process's capability and must stay in the shim")
				} else if recvNamed(obj) == "DomainConn" {
					pass.Report(ident.Pos(), "untrusted guestos code calls vmm.DomainConn.%s: the domain handle is the cloaked process's capability and must stay in the shim", obj.Name())
				}
			}
		case machPath:
			if !inGuestOS {
				break
			}
			if forbiddenMachNames[obj.Name()] {
				pass.Report(ident.Pos(), "untrusted guestos code references mach.%s: machine memory belongs to the VMM; use GPPNs and VMM-mediated access", obj.Name())
			} else if forbiddenMachReceiver(obj) {
				pass.Report(ident.Pos(), "untrusted guestos code calls mach.%s.%s: physical-memory accessors are VMM-only", recvNamed(obj), obj.Name())
			}
		case cloakPath:
			if inGuestOS && !allowedCloakNames[obj.Name()] {
				pass.Report(ident.Pos(), "untrusted guestos code references cloak.%s: key/plaintext machinery must stay inside the VMM trust boundary", obj.Name())
			}
		}
		return true
	})
}

// isRawHypercall reports whether obj is a VMM.HC* method that should be
// reached through DomainConn instead.
func isRawHypercall(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	name := fn.Name()
	if len(name) < 2 || name[:2] != "HC" || connExemptHypercalls[name] {
		return false
	}
	return recvNamed(fn) == "VMM"
}

// recvNamed returns the name of obj's receiver type if obj is a method.
func recvNamed(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// forbiddenMachReceiver reports whether obj is a method on the forbidden
// mach.Memory type (covers values smuggled in via other packages).
func forbiddenMachReceiver(obj types.Object) bool {
	return recvNamed(obj) == "Memory"
}
