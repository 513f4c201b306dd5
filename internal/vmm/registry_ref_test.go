package vmm

import (
	"slices"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/ordered"
	"overshadow/internal/sim"
)

// refRegistry is the registration store the GPPN-indexed table replaced,
// kept as a test oracle: a GPPN map of heap records, a per-domain index of
// the same records, and a pool of dropped records for reuse. A domain walk
// sorts the domain index's keys.
type refRegistry struct {
	pages    map[mach.GPPN]*cloakPage
	byDomain map[cloak.DomainID]map[mach.GPPN]*cloakPage
	spare    []*cloakPage
}

func newRefRegistry() *refRegistry {
	return &refRegistry{
		pages:    make(map[mach.GPPN]*cloakPage),
		byDomain: make(map[cloak.DomainID]map[mach.GPPN]*cloakPage),
	}
}

func (r *refRegistry) register(gppn mach.GPPN, page cloakPage) {
	var cp *cloakPage
	if n := len(r.spare); n > 0 {
		cp, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		cp = new(cloakPage)
	}
	*cp = page
	r.pages[gppn] = cp
	m := r.byDomain[cp.id.Domain]
	if m == nil {
		m = make(map[mach.GPPN]*cloakPage)
		r.byDomain[cp.id.Domain] = m
	}
	m[gppn] = cp
}

func (r *refRegistry) unregister(gppn mach.GPPN, cp *cloakPage) {
	delete(r.pages, gppn)
	if m := r.byDomain[cp.id.Domain]; m != nil {
		delete(m, gppn)
	}
	r.spare = append(r.spare, cp)
}

func (r *refRegistry) domainPages(d cloak.DomainID, keep func(*cloakPage) bool) []mach.GPPN {
	pages := r.byDomain[d]
	gppns := ordered.Keys(pages)
	if keep != nil {
		gppns = slices.DeleteFunc(gppns, func(g mach.GPPN) bool { return !keep(pages[g]) })
	}
	return gppns
}

func (r *refRegistry) scrub(d cloak.DomainID) {
	for _, gppn := range r.domainPages(d, nil) {
		delete(r.pages, gppn)
	}
	delete(r.byDomain, d)
}

// TestPageRegistryMatchesReference drives seeded registrations, state flips,
// unregistrations and domain scrubs through the VMM's GPPN-indexed table and
// the map-based reference store, and after every step compares the whole
// registration table, every domain's GPPN list (unfiltered, plaintext only
// and ciphertext only), its count and its QuarantineResidue. Re-registration
// keeps the page's domain: moving a page between domains left the old
// domain's index pointing at it in the reference store.
func TestPageRegistryMatchesReference(t *testing.T) {
	const (
		guestPages = 48
		domains    = 4
		steps      = 12000
	)
	r := newSizedRig(t, guestPages, Options{})
	v, ref := r.v, newRefRegistry()
	// The table spans the highest GPPN ever registered: empty at boot.
	span := 0
	rng := sim.NewRNG(11)
	newPage := func(d cloak.DomainID) cloakPage {
		return cloakPage{
			state:    pageState(rng.Intn(2)),
			id:       cloak.PageID{Domain: d, Resource: cloak.ResourceID(1 + rng.Intn(4)), Index: uint64(rng.Intn(64))},
			faultCPU: rng.Intn(4),
		}
	}
	filters := []func(*cloakPage) bool{
		nil,
		func(cp *cloakPage) bool { return cp.state == statePlain },
		func(cp *cloakPage) bool { return cp.state == stateEncrypted },
	}
	for step := 0; step < steps; step++ {
		g := mach.GPPN(rng.Intn(guestPages))
		rp := ref.pages[g]
		switch op := rng.Intn(16); {
		case op < 6 && rp == nil: // register
			page := newPage(cloak.DomainID(1 + rng.Intn(domains)))
			v.registerPage(g, page)
			ref.register(g, page)
			span = max(span, int(g)+1)
		case op < 6: // re-register
			page := newPage(rp.id.Domain)
			v.registerPage(g, page)
			ref.register(g, page)
		case op < 10 && rp != nil: // state flip
			cp := v.registered(g)
			if cp == nil {
				t.Fatalf("step %d: GPPN %d registered in the reference only", step, g)
			}
			cp.state = stateEncrypted - cp.state
			rp.state = stateEncrypted - rp.state
		case op < 14 && rp != nil: // unregister
			v.unregisterPage(g)
			ref.unregister(g, rp)
		case op == 15: // scrub a domain
			d := cloak.DomainID(1 + rng.Intn(domains))
			v.scrubDomain(d)
			ref.scrub(d)
		}

		if len(v.pages) != span {
			t.Fatalf("step %d: table spans %d pages, want %d", step, len(v.pages), span)
		}
		for g := mach.GPPN(0); g < guestPages; g++ {
			cp, rp := v.registered(g), ref.pages[g]
			if (cp == nil) != (rp == nil) || cp != nil && *cp != *rp {
				t.Fatalf("step %d: GPPN %d registration %+v, reference %+v", step, g, cp, rp)
			}
		}
		for d := cloak.DomainID(0); d <= domains; d++ {
			for i, keep := range filters {
				got, want := v.domainPages(d, keep), ref.domainPages(d, keep)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: domain %d walk %d = %v, reference %v", step, d, i, got, want)
				}
			}
			pages, metas, ctcs := v.QuarantineResidue(d)
			if want := len(ref.byDomain[d]); pages != want || metas != 0 || ctcs != 0 {
				t.Fatalf("step %d: domain %d residue (%d, %d, %d), want (%d, 0, 0)", step, d, pages, metas, ctcs, want)
			}
		}
	}
}
