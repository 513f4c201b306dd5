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
//   - the cloak package's key and plaintext machinery (Engine,
//     MasterKeyer, MetaStore, Meta, ...) is off limits entirely; only the
//     opaque identifier types (DomainID, ResourceID, PageID) may pass
//     through untrusted code;
//   - the vmm.DomainConn handle never appears — not as a struct field, not
//     as a parameter, not as a method call on a value smuggled through
//     another package. The handle is the cloaked process's capability to
//     its own domain; the untrusted kernel holding one could issue domain
//     hypercalls on the process's behalf.
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

func runCloakBoundary(pass *Pass) {
	if pass.Pkg.Path != "overshadow/internal/guestos" {
		return // every rule here bounds the untrusted kernel
	}
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
			// The DomainConn handle is the cloaked process's capability: the
			// untrusted kernel holding one (a local, a struct field, a method
			// call on a smuggled value) could issue domain hypercalls on the
			// process's behalf.
			if obj.Name() == "DomainConn" {
				pass.Report(ident.Pos(), "untrusted guestos code references vmm.DomainConn: the domain handle is the cloaked process's capability and must stay in the shim")
			} else if recvNamed(obj) == "DomainConn" {
				pass.Report(ident.Pos(), "untrusted guestos code calls vmm.DomainConn.%s: the domain handle is the cloaked process's capability and must stay in the shim", obj.Name())
			}
		case machPath:
			if forbiddenMachNames[obj.Name()] {
				pass.Report(ident.Pos(), "untrusted guestos code references mach.%s: machine memory belongs to the VMM; use GPPNs and VMM-mediated access", obj.Name())
			} else if forbiddenMachReceiver(obj) {
				pass.Report(ident.Pos(), "untrusted guestos code calls mach.%s.%s: physical-memory accessors are VMM-only", recvNamed(obj), obj.Name())
			}
		case cloakPath:
			if !allowedCloakNames[obj.Name()] {
				pass.Report(ident.Pos(), "untrusted guestos code references cloak.%s: key/plaintext machinery must stay inside the VMM trust boundary", obj.Name())
			}
		}
		return true
	})
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
