package obs

import "sort"

// The profile is the stack-attributed view of cycle accounting: where
// Metrics answers "which counter, under which task", Profile answers "which
// call chain". sim.World maintains a stack of open spans per guest task;
// every cycle charge lands at the current stack's node under the charge's
// counter name as the leaf frame, and every span completion feeds a
// per-(kind, domain) duration histogram. Like Metrics, the profile is a
// plain accumulator: merging per-world profiles is additive and
// order-independent, and every export sorts, so artifacts are byte-identical
// for any shard count.

// frameKey identifies one child frame of a profile node without building
// the rendered "kind/name" string on the hot path.
type frameKey struct {
	kind Kind
	name string
}

// ProfNode is one frame of the profile tree. Children are the spans opened
// while this frame was on top; leaves are the counters charged while this
// frame was the innermost open span.
type ProfNode struct {
	children map[frameKey]*ProfNode
	leaves   map[string]uint64
}

// Child returns the node for the (kind, name) frame opened under n,
// creating it on first use. The lookup itself does not allocate; creation
// is once per distinct stack shape.
func (n *ProfNode) Child(kind Kind, name string) *ProfNode {
	k := frameKey{kind: kind, name: name}
	c := n.children[k]
	if c == nil {
		// Amortized: one allocation per distinct (stack, frame) pair — the
		// span vocabulary is a small fixed set, not per-event.
		c = &ProfNode{}
		if n.children == nil {
			n.children = make(map[frameKey]*ProfNode)
		}
		n.children[k] = c
	}
	return c
}

// AddLeaf charges cycles at this node under the counter name.
func (n *ProfNode) AddLeaf(name string, cycles uint64) {
	if n.leaves == nil {
		n.leaves = make(map[string]uint64)
	}
	n.leaves[name] += cycles
}

// HistKey identifies one duration histogram: the span kind and the cloaking
// domain the span was attributed to (0 = uncloaked/machine context).
type HistKey struct {
	Kind   Kind
	Domain uint32
}

// Profile is the stack-attributed cycle store: a forest of frame trees (one
// root per phase label) plus the per-(kind, domain) span-duration
// histograms.
type Profile struct {
	roots map[string]*ProfNode
	hists map[HistKey]*Histogram
	// droppedSpans carries the trace ring's RingStats.Dropped so every
	// histogram export can state whether the companion trace was truncated.
	// The histograms themselves are fed at span completion, not from the
	// ring, so they are complete even when the ring wrapped — but a consumer
	// correlating them with a trace needs to know the trace is not.
	droppedSpans uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{roots: make(map[string]*ProfNode), hists: make(map[HistKey]*Histogram)}
}

// Root returns the tree root for the given phase label ("" maps to
// "world"), creating it on first use. The root is the base of every task's
// span stack in that world.
func (p *Profile) Root(phase string) *ProfNode {
	if phase == "" {
		phase = "world"
	}
	r := p.roots[phase]
	if r == nil {
		r = &ProfNode{}
		p.roots[phase] = r
	}
	return r
}

// AddDropped accumulates the companion trace ring's dropped-span count.
func (p *Profile) AddDropped(n uint64) { p.droppedSpans += n }

// Dropped reports the accumulated dropped-span count of the companion
// trace rings (0 when no ring wrapped or no tracing ran).
func (p *Profile) Dropped() uint64 { return p.droppedSpans }

// Observe records one completed span's duration into the (kind, domain)
// histogram.
func (p *Profile) Observe(kind Kind, domain uint32, dur uint64) {
	k := HistKey{Kind: kind, Domain: domain}
	h := p.hists[k]
	if h == nil {
		// Amortized: one allocation per distinct (kind, domain) pair.
		h = &Histogram{}
		p.hists[k] = h
	}
	h.Record(dur)
}

// HistEntry is one (key, histogram) pair of the key-sorted histogram view.
type HistEntry struct {
	Key  HistKey
	Hist *Histogram
}

// Hists returns every duration histogram sorted by (kind, domain) — the
// deterministic order every export uses.
func (p *Profile) Hists() []HistEntry {
	out := make([]HistEntry, 0, len(p.hists))
	// Order-independent: entries are collected, then sorted by key below.
	//overlint:allow determinism -- keys are collected then sorted before any serialization
	for k, h := range p.hists {
		out = append(out, HistEntry{Key: k, Hist: h})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Kind != out[j].Key.Kind {
			return out[i].Key.Kind < out[j].Key.Kind
		}
		return out[i].Key.Domain < out[j].Key.Domain
	})
	return out
}

// HistByKind merges the per-domain histograms of one span kind into a
// single distribution (merge is order-independent, so which domain folds
// first cannot reach the bytes of any export built from the result).
func (p *Profile) HistByKind(kind Kind) *Histogram {
	var h Histogram
	//overlint:allow determinism -- histogram merge is commutative; iteration order cannot reach serialized bytes
	for k, src := range p.hists {
		if k.Kind == kind {
			h.Merge(src)
		}
	}
	return &h
}

// Merge adds every node and histogram of other into p. All accumulation is
// additive (cycles) or commutative folding (histograms), so merging the
// same per-world profiles in any order yields an identical profile.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	//overlint:allow determinism -- additive tree merge; iteration order cannot reach serialized bytes
	for phase, r := range other.roots {
		dst := p.roots[phase]
		if dst == nil {
			dst = &ProfNode{}
			p.roots[phase] = dst
		}
		mergeNode(dst, r)
	}
	//overlint:allow determinism -- commutative histogram merge; iteration order cannot reach serialized bytes
	for k, h := range other.hists {
		dst := p.hists[k]
		if dst == nil {
			dst = &Histogram{}
			p.hists[k] = dst
		}
		dst.Merge(h)
	}
	p.droppedSpans += other.droppedSpans
}

func mergeNode(dst, src *ProfNode) {
	//overlint:allow determinism -- additive leaf merge; iteration order cannot reach serialized bytes
	for name, c := range src.leaves {
		dst.AddLeaf(name, c)
	}
	//overlint:allow determinism -- recursive additive merge; iteration order cannot reach serialized bytes
	for k, child := range src.children {
		mergeNode(dst.Child(k.kind, k.name), child)
	}
}

// TotalCycles sums every leaf in the profile.
func (p *Profile) TotalCycles() uint64 {
	var total uint64
	//overlint:allow determinism -- commutative sum; iteration order cannot reach serialized bytes
	for _, r := range p.roots {
		total += nodeTotal(r)
	}
	return total
}

func nodeTotal(n *ProfNode) uint64 {
	var total uint64
	//overlint:allow determinism -- commutative sum; iteration order cannot reach serialized bytes
	for _, c := range n.leaves {
		total += c
	}
	//overlint:allow determinism -- commutative sum; iteration order cannot reach serialized bytes
	for _, child := range n.children {
		total += nodeTotal(child)
	}
	return total
}

// FoldedLine is one folded-stack sample: semicolon-joined frames (innermost
// last; the final frame is the charged counter) and the cycles attributed
// to exactly that stack.
type FoldedLine struct {
	Stack  string `json:"stack"`
	Cycles uint64 `json:"cycles"`
}

// FoldedLines renders the profile as folded stacks in deterministic order:
// depth-first over frames sorted by (kind, name), leaves alphabetical, with
// roots sorted by phase. The format is directly consumable by standard
// flame-graph tooling (stack-semicolon-separated, count last).
func (p *Profile) FoldedLines() []FoldedLine {
	phases := make([]string, 0, len(p.roots))
	//overlint:allow determinism -- keys are collected then sorted before serialization
	for phase := range p.roots {
		phases = append(phases, phase)
	}
	sort.Strings(phases)
	var out []FoldedLine
	for _, phase := range phases {
		out = appendFolded(out, p.roots[phase], phase)
	}
	return out
}

// appendFolded emits node's leaves then recurses into sorted children.
func appendFolded(out []FoldedLine, n *ProfNode, prefix string) []FoldedLine {
	leafNames := make([]string, 0, len(n.leaves))
	//overlint:allow determinism -- keys are collected then sorted before serialization
	for name := range n.leaves {
		leafNames = append(leafNames, name)
	}
	sort.Strings(leafNames)
	for _, name := range leafNames {
		out = append(out, FoldedLine{Stack: prefix + ";" + name, Cycles: n.leaves[name]})
	}
	keys := make([]frameKey, 0, len(n.children))
	//overlint:allow determinism -- keys are collected then sorted before serialization
	for k := range n.children {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		out = appendFolded(out, n.children[k], prefix+";"+k.kind.String()+"/"+k.name)
	}
	return out
}
