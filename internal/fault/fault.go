// Package fault is the simulator's deterministic fault-injection framework.
// A Plan declares, per injection site, how often each fault kind fires; an
// Injector turns the plan plus a seed into a concrete, fully reproducible
// fault schedule. Every component of the simulated machine consults the
// injector at its fault opportunities (disk transfers, swap traffic,
// hypercalls, integrity checks), so a single seed replays the exact same
// failure history — the property the E13 fault-sweep experiment and the
// quarantine tests are built on.
//
// The package depends only on the standard library (and uses none of its
// nondeterministic corners): internal/sim holds the injector on the World
// handle, so fault must sit below sim in the import graph. The injector
// carries its own xorshift64* stream rather than borrowing the world RNG —
// injection decisions must not perturb workload randomness, so a plan with
// all rates zero behaves bit-identically to no plan at all.
package fault

import "fmt"

// Site enumerates the machine's fault-injection points.
type Site uint8

// Injection sites, one per fault boundary the simulator models.
const (
	// SiteDiskRead: a block-device read (swap or filesystem).
	SiteDiskRead Site = iota
	// SiteDiskWrite: a block-device write.
	SiteDiskWrite
	// SiteSwapIn: the guest kernel's page-in path, after the block arrives
	// from the swap device (models kernel-side swap corruption; composes
	// with the Adversary.OnPageIn hook).
	SiteSwapIn
	// SiteSwapOut: the guest kernel's page-out path, before the block is
	// written (composes with Adversary.OnPageOut).
	SiteSwapOut
	// SiteHypercall: transient resource failure of a domain hypercall.
	SiteHypercall
	// SiteMetaTamper: the cloaking metadata record consulted for a decrypt
	// is corrupted in flight (detection then fires as an integrity
	// violation).
	SiteMetaTamper
	// SiteIntegrity: a cloak integrity check is forced to mismatch outright.
	SiteIntegrity
	// SiteTransfer: one frame of a live-migration checkpoint transfer (a
	// sealed record or a ciphertext page) crossing the inter-machine
	// channel. Fail loses the frame, Torn delivers a prefix then drops the
	// connection (both drive the bounded retry-then-typed-abort path), and
	// Corrupt delivers the frame silently damaged — detection is the
	// restore-side MAC/hash verification, never the channel.
	SiteTransfer
	// NumSites bounds the site enum; keep it last.
	NumSites
)

var siteNames = [...]string{
	"disk-read", "disk-write", "swap-in", "swap-out",
	"hypercall", "meta-tamper", "integrity", "transfer",
}

// String implements fmt.Stringer.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Kind classifies what an injected fault does to the operation.
type Kind uint8

// Fault kinds.
const (
	// None: no fault at this opportunity.
	None Kind = iota
	// Fail: the operation reports an error and has no effect.
	Fail
	// Corrupt: the operation "succeeds" but its payload is silently
	// corrupted (bit flips in the transferred data or metadata).
	Corrupt
	// Torn: a write is partially applied before failing (torn write).
	Torn
)

var kindNames = [...]string{"none", "fail", "corrupt", "torn"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rate configures one injection site. Probabilities are per-mille per
// opportunity and are evaluated in the order fail, corrupt, torn from a
// single PRNG draw, so their sum must stay ≤ 1000.
type Rate struct {
	FailPerMille    int
	CorruptPerMille int
	TornPerMille    int
	// Max bounds how many faults this site may inject over the injector's
	// lifetime; 0 means unlimited. Deterministic either way.
	Max int
}

func (r Rate) enabled() bool {
	return r.FailPerMille > 0 || r.CorruptPerMille > 0 || r.TornPerMille > 0
}

// Plan is a complete fault schedule specification: one Rate per site. The
// zero value injects nothing.
type Plan struct {
	Rates [NumSites]Rate
}

// Enabled reports whether any site has a nonzero rate.
func (p Plan) Enabled() bool {
	for _, r := range p.Rates {
		if r.enabled() {
			return true
		}
	}
	return false
}

// Injection records one injected fault, in injection order.
type Injection struct {
	Seq  int // global injection ordinal (0-based)
	Site Site
	Kind Kind
}

// Injector evaluates a Plan deterministically. It must be seeded from the
// simulation seed (the overlint determinism analyzer enforces that call
// sites never feed it host randomness).
type Injector struct {
	plan   Plan
	state  uint64 // private xorshift64* stream
	counts [NumSites]int
	log    []Injection
}

// NewInjector builds an injector for plan whose schedule is a pure function
// of seed. Zero seeds are remapped exactly as in sim.NewRNG.
func NewInjector(seed uint64, plan Plan) *Injector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Injector{plan: plan, state: seed}
}

func (i *Injector) next() uint64 {
	x := i.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	i.state = x
	return x * 0x2545F4914F6CDD1D
}

// At consumes one fault opportunity at site and reports whether a fault
// fires, and of which kind. Sites with all-zero rates consume no PRNG state,
// so enabling one site leaves every other site's schedule untouched.
func (i *Injector) At(site Site) (Kind, bool) {
	r := i.plan.Rates[site]
	if !r.enabled() {
		return None, false
	}
	roll := int(i.next() % 1000)
	var kind Kind
	switch {
	case roll < r.FailPerMille:
		kind = Fail
	case roll < r.FailPerMille+r.CorruptPerMille:
		kind = Corrupt
	case roll < r.FailPerMille+r.CorruptPerMille+r.TornPerMille:
		kind = Torn
	default:
		return None, false
	}
	if r.Max > 0 && i.counts[site] >= r.Max {
		return None, false
	}
	i.counts[site]++
	i.log = append(i.log, Injection{Seq: len(i.log), Site: site, Kind: kind})
	return kind, true
}

// Corrupt deterministically flips one to three bytes of buf (no-op on an
// empty buffer). Used by Corrupt-kind faults to damage a payload in a way
// that is reproducible per seed.
func (i *Injector) Corrupt(buf []byte) {
	if len(buf) == 0 {
		return
	}
	n := 1 + int(i.next()%3)
	for j := 0; j < n; j++ {
		off := int(i.next() % uint64(len(buf)))
		buf[off] ^= byte(1 + i.next()%255)
	}
}

// TornLen picks the deterministic prefix length [1, n) a torn write applies
// before failing. n must be at least 2 to tear meaningfully; smaller values
// return 0 (nothing applied).
func (i *Injector) TornLen(n int) int {
	if n < 2 {
		return 0
	}
	return 1 + int(i.next()%uint64(n-1))
}

// Count reports how many faults were injected at site so far.
func (i *Injector) Count(site Site) int { return i.counts[site] }

// SiteActive reports whether site still has schedule left: a nonzero rate
// whose Max cap (if any) is not yet exhausted. Components that would be
// unsafe to reconfigure mid-schedule (e.g. re-homing a disk between worlds)
// use this to refuse with a typed error instead of silently splicing a
// half-delivered fault plan onto a different machine.
func (i *Injector) SiteActive(site Site) bool {
	r := i.plan.Rates[site]
	return r.enabled() && (r.Max == 0 || i.counts[site] < r.Max)
}

// Total reports how many faults were injected across all sites.
func (i *Injector) Total() int { return len(i.log) }

// Log returns a copy of the injected-fault history in injection order.
func (i *Injector) Log() []Injection {
	out := make([]Injection, len(i.log))
	copy(out, i.log)
	return out
}
