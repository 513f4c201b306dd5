// Package guestos is cloakboundary-analyzer testdata loaded under the
// production import path overshadow/internal/guestos, importing the real
// mach, cloak, and vmm packages.
package guestos

import (
	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/vmm"
)

func badMemoryHandle(m *mach.Memory) { // want `references mach\.Memory`
	frame := m.Page(0) // want `calls mach\.Memory\.Page`
	_ = frame
}

func badMPN(x uint64) mach.MPN { // want `references mach\.MPN`
	return mach.MPN(x) // want `references mach\.MPN`
}

func badKeys(secret []byte) [cloak.KeySize]byte { // want `references cloak\.KeySize`
	keys := cloak.NewMasterKeyer(secret) // want `references cloak\.NewMasterKeyer`
	return keys.DomainKey(1)             // want `references cloak\.DomainKey`
}

// Opaque identifier types carry no key or plaintext material and may pass
// through untrusted code freely.
func okOpaqueIDs(d cloak.DomainID, r cloak.ResourceID, g mach.GPPN) bool {
	return uint32(d) == 0 && uint64(r) == 0 && uint64(g) == 0
}

func allowedHandle() {
	//overlint:allow cloakboundary -- testdata: deliberate exception
	var m *mach.Memory
	_ = m
}

// The domain handle is the cloaked process's capability; the untrusted
// kernel must not hold one in a field, accept one as a parameter, or call
// methods on a smuggled value.
type connHolder struct {
	conn *vmm.DomainConn // want `references vmm\.DomainConn`
}

func badConnCall(c *vmm.DomainConn) cloak.DomainID { // want `references vmm\.DomainConn`
	return c.Domain() // want `calls vmm\.DomainConn\.Domain`
}
