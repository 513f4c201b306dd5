package vmm

import (
	"overshadow/internal/cloak"
	"overshadow/internal/fault"
	"overshadow/internal/mach"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// This file is the hypercall surface: the operations the in-application
// shim invokes directly on the VMM, bypassing the guest kernel. Each entry
// point charges the hypercall cost (two world switches plus dispatch).
//
// Only domain lifecycle lives on *VMM (HCCreateDomain mints the handle;
// HCFileResource/HCDropFileResource manage per-file vault domains, which
// have no calling-domain precondition). Everything that requires a live
// domain is a method on DomainConn (domainconn.go), which performs the
// single staleness check; the unexported implementations below assume a
// validated caller and carry no domain guards.

func (v *VMM) chargeHypercall(name string) {
	c := v.cpu()
	c.ChargeCount(v.world.Cost.Hypercall, sim.CtrHypercall)
	c.EmitSpan(obs.KindHypercall, name, 0, v.world.Cost.Hypercall)
}

// hypercallFault consults the fault injector for a transient resource
// failure of the named hypercall (any injected kind at the hypercall site
// means "fail transiently, retry may succeed"). Only the idempotent resource
// hypercalls take this path — lifecycle calls (create, clone, destroy) must
// stay fault-free or half-built domains would need their own recovery story.
func (v *VMM) hypercallFault(name string) error {
	if _, ok := v.cpu().InjectAt(fault.SiteHypercall); ok {
		v.logEvent(Event{Kind: EventResourceFault,
			Detail: name + ": injected transient failure"})
		return &ResourceFault{Op: name, Detail: "injected transient failure",
			Transient: true}
	}
	return nil
}

// HCCreateDomain establishes a new protection domain, binds it to the
// calling address space, and returns the typed hypercall handle every
// further domain operation goes through. Called by the shim during
// cloaked-process startup.
func (v *VMM) HCCreateDomain(as *AddressSpace) (*DomainConn, error) {
	v.chargeHypercall("create_domain")
	if as.domain != 0 {
		return nil, ErrDomainBound
	}
	if q := v.opts.Quota.MaxDomains; q > 0 && len(v.domainSpaces) >= q {
		// Domain-spawn storm containment: the storm gets a typed failure;
		// existing domains keep their resources.
		v.cpu().ChargeAdd(0, sim.CtrQuotaDenied, 1)
		v.logEvent(Event{Kind: EventResourceFault,
			Detail: "create_domain: domain quota exhausted"})
		return nil, &ResourceFault{Op: "create_domain",
			Detail: "domain quota exhausted"}
	}
	d := v.nextDomain
	v.nextDomain++
	as.domain = d
	v.domainSpaces[d] = append(v.domainSpaces[d], as)
	return &DomainConn{v: v, as: as, domain: d}, nil
}

// allocResource hands out a fresh resource identifier.
func (v *VMM) allocResource() cloak.ResourceID {
	r := v.nextResource
	v.nextResource++
	return r
}

// registerRegion validates and installs a region, then drops any stale
// shadow entries in its range in one batched pass (they predate the
// region's semantics).
func (v *VMM) registerRegion(as *AddressSpace, r Region) error {
	if r.Cloaked && r.Resource == 0 {
		return &RegionError{Op: "register", Region: r, Err: ErrNoResource}
	}
	if q := v.opts.Quota.MaxRegionsPerDomain; q > 0 && as.domain != 0 {
		// Metastore growth-bomb containment: regions (and the metadata
		// records behind them) are bounded per domain; the bomber gets a
		// typed failure while sibling domains register freely.
		n := 0
		for _, sp := range v.domainSpaces[as.domain] {
			n += len(sp.regions)
		}
		if n >= q {
			v.cpu().ChargeAdd(0, sim.CtrQuotaDenied, 1)
			v.logEvent(Event{Kind: EventResourceFault, Domain: as.domain,
				Detail: "register_region: per-domain region quota exhausted"})
			return &ResourceFault{Op: "register_region",
				Detail: "per-domain region quota exhausted"}
		}
	}
	if err := as.addRegion(r); err != nil {
		return err
	}
	v.dropShadowsRange(as, r.BaseVPN, r.Pages)
	return nil
}

// unregisterRegion removes the registration starting at baseVPN. Metadata
// for the resource is retained until releaseResource.
func (v *VMM) unregisterRegion(as *AddressSpace, baseVPN uint64) error {
	i, ok := as.findRegion(baseVPN)
	if !ok {
		return &RegionError{Op: "unregister",
			Region: Region{BaseVPN: baseVPN}, Err: ErrNoRegion}
	}
	r := as.regions[i]
	v.dropShadowsRange(as, r.BaseVPN, r.Pages)
	as.regions = append(as.regions[:i], as.regions[i+1:]...)
	return nil
}

// releaseResource discards all metadata records of a resource.
func (v *VMM) releaseResource(d cloak.DomainID, res cloak.ResourceID, pages uint64) {
	for i := uint64(0); i < pages; i++ {
		id := cloak.PageID{Domain: d, Resource: res, Index: i}
		v.metas.Delete(id)
		v.jDelete(id)
	}
}

// destroyDomain tears down a domain; see DomainConn.Destroy.
func (v *VMM) destroyDomain(d cloak.DomainID) {
	v.scrubDomain(d)
	delete(v.identities, d)
	v.metas.DeleteDomain(d)
	v.jDropDomain(d)
	for _, as := range v.domainSpaces[d] {
		as.domain = 0
		as.regions = nil
	}
	delete(v.domainSpaces, d)
}

// HCFileResource binds a stable (vault domain, resource) pair to a file
// identity, so cloaked file contents keep a consistent page identity across
// windows, processes, and reopens. The uid is the file's inode number.
func (v *VMM) HCFileResource(uid uint64) (cloak.DomainID, cloak.ResourceID) {
	v.chargeHypercall("file_resource")
	if b, ok := v.fileVaults[uid]; ok {
		return b.domain, b.resource
	}
	d := v.nextDomain
	v.nextDomain++
	r := v.nextResource
	v.nextResource++
	v.fileVaults[uid] = fileVault{domain: d, resource: r}
	return d, r
}

// HCDropFileResource forgets a file's vault binding and metadata (file
// deletion).
func (v *VMM) HCDropFileResource(uid uint64) {
	v.chargeHypercall("drop_file_resource")
	if b, ok := v.fileVaults[uid]; ok {
		v.metas.DeleteDomain(b.domain)
		v.jDropDomain(b.domain)
		delete(v.fileVaults, uid)
	}
}

// cloneDomainInto supports fork of a cloaked process. The guest kernel has
// already built the child address space and eagerly copied every present
// page — necessarily as ciphertext, since the kernel copy forced
// encryption. The VMM now walks the child's cloaked regions and re-cloaks
// each copied page under the child's own fresh resource identities:
// verify + decrypt under the parent identity, re-encrypt under the child's.
//
// This is why fork is one of the expensive operations for cloaked
// applications (experiment E1): each resident page pays a kernel-side
// encryption, a copy, and a decrypt/re-encrypt pair here.
//
// resourceMap translates parent resource IDs to the child's new ones;
// regions are duplicated accordingly.
func (v *VMM) cloneDomainInto(parent, child *AddressSpace) (map[cloak.ResourceID]cloak.ResourceID, error) {
	child.domain = parent.domain
	v.domainSpaces[parent.domain] = append(v.domainSpaces[parent.domain], child)

	resourceMap := make(map[cloak.ResourceID]cloak.ResourceID)
	for _, r := range parent.regions {
		nr := r
		if r.Cloaked && r.Domain == 0 {
			// Domain-private region: the child gets fresh resources.
			newRes, ok := resourceMap[r.Resource]
			if !ok {
				newRes = v.allocResource()
				resourceMap[r.Resource] = newRes
			}
			nr.Resource = newRes
		}
		// Vault (file) regions are shared: same domain, same resource.
		if err := child.addRegion(nr); err != nil {
			return nil, err
		}
	}

	// Invert the resource map once: the re-cloak loop below looks up the
	// parent resource per region, and scanning resourceMap there again would
	// be O(regions²).
	parentOf := make(map[cloak.ResourceID]cloak.ResourceID, len(resourceMap))
	for pr, cr := range resourceMap {
		parentOf[cr] = pr
	}

	// Re-cloak every resident page of the child's domain-private cloaked
	// regions. (Vault regions verify under their own stable identity; the
	// kernel's eager ciphertext copy is already correct for them.)
	for _, r := range child.regions {
		if !r.Cloaked || r.Domain != 0 {
			continue
		}
		parentRes := parentOf[r.Resource]
		for vpn := r.BaseVPN; vpn < r.BaseVPN+r.Pages; vpn++ {
			gpte := child.guestPT.Lookup(vpn)
			if !gpte.Present() {
				continue
			}
			gppn := mach.GPPN(gpte.PN)
			if _, inRange := v.machineOf(gppn); !inRange {
				v.unwindClone(child, resourceMap)
				return nil, v.badGPPN("clone_domain", gppn)
			}
			idx := r.IndexOff + (vpn - r.BaseVPN)
			parentID := cloak.PageID{Domain: child.domain, Resource: parentRes, Index: idx}
			childID := cloak.PageID{Domain: child.domain, Resource: r.Resource, Index: idx}
			meta, ok := v.metas.Get(parentID)
			if !ok {
				// Parent page was never encrypted — can only happen if it
				// was never touched; the copied frame is all zeros. First
				// touch in the child will zero-fill, so skip.
				continue
			}
			frame := v.frame(gppn)
			if err := v.engine.DecryptPage(parentID, meta, frame); err != nil {
				// The kernel corrupted the copy in flight. The parent's own
				// pages are untouched, so the containment unit is the fork
				// itself: unwind the half-built child binding and fail the
				// clone; the kernel aborts the fork and the parent lives.
				ev := Event{Kind: EventIntegrityViolation, Domain: child.domain,
					Page: parentID, GPPN: gppn,
					Detail: "fork copy failed verification: " + err.Error()}
				v.logEvent(ev)
				v.unwindClone(child, resourceMap)
				return nil, &SecViolation{Event: ev}
			}
			newMeta := v.engine.EncryptPage(childID, 0, frame)
			v.metas.Put(childID, newMeta)
			v.jPut(childID, newMeta)
			v.registerPage(gppn, &cloakPage{state: stateEncrypted, id: childID})
		}
	}
	return resourceMap, nil
}

// unwindClone reverses the partial effects of a failed cloneDomainInto: the
// pages already re-cloaked under the child's fresh resources are unregistered
// and their metadata dropped, and the child address space is detached from
// the domain. The child's frames themselves belong to the guest kernel,
// which tears the aborted fork down. The unwind charges nothing, but on a
// journaled machine each metadata delete appends a sealed record, so the
// pages are unwound in ascending GPPN order.
func (v *VMM) unwindClone(child *AddressSpace, resourceMap map[cloak.ResourceID]cloak.ResourceID) {
	d := child.domain
	childRes := make(map[cloak.ResourceID]bool, len(resourceMap))
	for _, cr := range resourceMap {
		childRes[cr] = true
	}
	victims := v.domainPages(d, func(cp *cloakPage) bool { return childRes[cp.id.Resource] })
	for _, gppn := range victims {
		cp := v.pages[gppn]
		id := cp.id
		v.metas.Delete(id)
		v.jDelete(id)
		v.unregisterPage(gppn, cp)
	}
	list := v.domainSpaces[d]
	for i, q := range list {
		if q == child {
			v.domainSpaces[d] = append(list[:i], list[i+1:]...)
			break
		}
	}
	child.domain = 0
	child.regions = nil
}

// recordIdentity records the measured identity of a domain; write-once.
func (v *VMM) recordIdentity(d cloak.DomainID, digest [32]byte) error {
	if _, dup := v.identities[d]; dup {
		return ErrAlreadyMeasured
	}
	v.identities[d] = digest
	return nil
}

// DomainIdentity reports the measured identity of a domain (ok=false if
// the domain was never measured). Read-only; safe for relying parties.
func (v *VMM) DomainIdentity(d cloak.DomainID) ([32]byte, bool) {
	id, ok := v.identities[d]
	return id, ok
}
