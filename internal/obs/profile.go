package obs

import (
	"cmp"
	"slices"
	"strings"
)

// The profile is the stack-attributed view of cycle accounting: where
// Metrics answers "which counter, under which task", Profile answers "which
// call chain". sim.World maintains a stack of open spans per guest task;
// every cycle charge lands in the current stack's node, in the leaf row
// cell of the charge's counter, and every span completion feeds a
// per-(kind, domain) duration histogram. Like Metrics, the profile is a
// plain accumulator: merging per-world profiles is additive and
// order-independent, and children, roots and histograms are kept in key
// order, so every export walks them as they stand and artifacts are
// byte-identical for any shard count.

// frameKey identifies one child frame of a profile node.
type frameKey struct {
	kind Kind
	name string
}

// ProfNode is one frame of the profile tree. Children are the spans opened
// while this frame was on top, sorted by (kind, name); leaves is the row of
// counters charged while this frame was the innermost open span.
type ProfNode struct {
	frameKey
	children []*ProfNode
	leaves   Row
}

// Child returns the node for the (kind, name) frame opened under n,
// creating it on first use. The lookup is a binary search over n's
// children; creation is once per distinct stack shape.
func (n *ProfNode) Child(kind Kind, name string) *ProfNode {
	k := frameKey{kind, name}
	i, ok := slices.BinarySearchFunc(n.children, k, func(c *ProfNode, k frameKey) int {
		return cmp.Or(cmp.Compare(c.kind, k.kind), strings.Compare(c.name, k.name))
	})
	if !ok {
		// Amortized: one allocation per distinct (stack, frame) pair — the
		// span vocabulary is a small fixed set, not per-event.
		n.children = slices.Insert(n.children, i, &ProfNode{frameKey: k, leaves: make(Row, len(n.leaves))})
	}
	return n.children[i]
}

// AddLeaf charges cycles at this node to the counter in slot.
func (n *ProfNode) AddLeaf(slot int, cycles uint64) { n.leaves.Add(slot, cycles, 0) }

// HistKey identifies one duration histogram: the span kind and the cloaking
// domain the span was attributed to (0 = uncloaked/machine context).
type HistKey struct {
	Kind   Kind
	Domain uint32
}

// HistEntry is one (key, histogram) pair of the key-sorted histogram view.
type HistEntry struct {
	Key  HistKey
	Hist *Histogram
}

// Profile is the stack-attributed cycle store: a forest of frame trees (one
// root per phase label) plus the per-(kind, domain) span-duration
// histograms.
type Profile struct {
	ctrs *Counters
	// forest's children are the roots, as frames of kind KindNone named by
	// their phase labels; forest itself is never charged.
	forest ProfNode
	hists  []HistEntry // sorted by (kind, domain)
}

// NewProfile returns an empty profile over ctrs.
func NewProfile(ctrs *Counters) *Profile {
	return &Profile{ctrs: ctrs, forest: ProfNode{leaves: make(Row, len(ctrs.names))}}
}

// Root returns the tree root for the given phase label ("" maps to
// "world"), creating it on first use. The root is the base of every task's
// span stack in that world.
func (p *Profile) Root(phase string) *ProfNode {
	if phase == "" {
		phase = "world"
	}
	return p.forest.Child(KindNone, phase)
}

// hist returns the histogram for k, creating it on first use.
func (p *Profile) hist(k HistKey) *Histogram {
	i, ok := slices.BinarySearchFunc(p.hists, k, func(e HistEntry, k HistKey) int {
		return cmp.Or(cmp.Compare(e.Key.Kind, k.Kind), cmp.Compare(e.Key.Domain, k.Domain))
	})
	if !ok {
		// Amortized: one allocation per distinct (kind, domain) pair.
		p.hists = slices.Insert(p.hists, i, HistEntry{Key: k, Hist: &Histogram{}})
	}
	return p.hists[i].Hist
}

// Observe records one completed span's duration into the (kind, domain)
// histogram.
func (p *Profile) Observe(kind Kind, domain uint32, dur uint64) {
	p.hist(HistKey{Kind: kind, Domain: domain}).Record(dur)
}

// Hists returns every duration histogram sorted by (kind, domain) — the
// deterministic order every export uses. The slice is the profile's own.
func (p *Profile) Hists() []HistEntry { return p.hists }

// HistByKind merges the per-domain histograms of one span kind into a
// single distribution.
func (p *Profile) HistByKind(kind Kind) *Histogram {
	var h Histogram
	for _, e := range p.hists {
		if e.Key.Kind == kind {
			h.Merge(e.Hist)
		}
	}
	return &h
}

// Merge adds every node and histogram of other, a profile over the same
// counters, into p. All accumulation is additive (cycles) or commutative
// folding (histograms), so merging the same per-world profiles in any
// order yields an identical profile.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	mergeNode(&p.forest, &other.forest)
	for _, e := range other.hists {
		p.hist(e.Key).Merge(e.Hist)
	}
}

func mergeNode(dst, src *ProfNode) {
	dst.leaves.merge(src.leaves)
	for _, c := range src.children {
		mergeNode(dst.Child(c.kind, c.name), c)
	}
}

// TotalCycles sums every leaf in the profile.
func (p *Profile) TotalCycles() uint64 { return nodeTotal(&p.forest) }

func nodeTotal(n *ProfNode) uint64 {
	total := n.leaves.cycles()
	for _, c := range n.children {
		total += nodeTotal(c)
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
// roots by phase, then depth-first with each node's charged leaves in name
// order before its children in (kind, name) order. The format is directly
// consumable by standard flame-graph tooling (stack-semicolon-separated,
// count last).
func (p *Profile) FoldedLines() []FoldedLine {
	var out []FoldedLine
	for _, r := range p.forest.children {
		out = p.appendFolded(out, r, r.name)
	}
	return out
}

// appendFolded emits node's charged leaves then recurses into its children.
func (p *Profile) appendFolded(out []FoldedLine, n *ProfNode, prefix string) []FoldedLine {
	for _, s := range p.ctrs.byName {
		if c := n.leaves[s]; c.Charged {
			out = append(out, FoldedLine{Stack: prefix + ";" + p.ctrs.names[s], Cycles: c.Cycles})
		}
	}
	for _, c := range n.children {
		out = p.appendFolded(out, c, prefix+";"+c.kind.String()+"/"+c.name)
	}
	return out
}
