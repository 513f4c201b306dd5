package obs

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// testNames is the counter vocabulary of this package's tests. It is not in
// name order, so every export's name-order walk is exercised.
var testNames = []string{
	"mem.access", "cloak.encrypt", "cpu.idle", "vmm.worldswitch",
	"vmm.ctc.save", "z.ctr", "a.ctr", "tlb.hit",
}

var testCtrs = NewCounters(testNames)

// slotOf returns name's slot in testCtrs.
func slotOf(name string) int {
	s := slices.Index(testNames, name)
	if s < 0 {
		panic("obs test: unknown counter " + name)
	}
	return s
}

// refMetrics is the map-of-maps store Metrics replaced, kept as a test
// oracle: one bucket per attribution key, each a counter-name map of cycles
// and one of events, sorted at every export.
type refMetrics struct {
	buckets map[Attr]*refBucket
}

type refBucket struct {
	cycles map[string]uint64
	counts map[string]uint64
}

func newRefMetrics() *refMetrics { return &refMetrics{buckets: make(map[Attr]*refBucket)} }

func (m *refMetrics) bucket(a Attr) *refBucket {
	b := m.buckets[a]
	if b == nil {
		b = &refBucket{cycles: make(map[string]uint64), counts: make(map[string]uint64)}
		m.buckets[a] = b
	}
	return b
}

func (m *refMetrics) Charge(a Attr, name string, cycles, events uint64) {
	b := m.bucket(a)
	b.cycles[name] += cycles
	if events != 0 {
		b.counts[name] += events
	}
}

func (m *refMetrics) TotalCycles() uint64 {
	var total uint64
	for _, b := range m.buckets {
		for _, c := range b.cycles {
			total += c
		}
	}
	return total
}

func (m *refMetrics) TotalsSorted() []NameTotal {
	totals := make(map[string]uint64)
	for _, b := range m.buckets {
		for name, c := range b.cycles {
			totals[name] += c
		}
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]NameTotal, 0, len(names))
	for _, name := range names {
		out = append(out, NameTotal{Name: name, Cycles: totals[name]})
	}
	return out
}

func (m *refMetrics) Snapshot() []MetricPoint {
	attrs := make([]Attr, 0, len(m.buckets))
	for a := range m.buckets {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].key() < attrs[j].key() })
	var out []MetricPoint
	for _, a := range attrs {
		b := m.buckets[a]
		names := make([]string, 0, len(b.cycles))
		for n := range b.cycles {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, MetricPoint{Attr: a, Name: n, Cycles: b.cycles[n], Events: b.counts[n]})
		}
	}
	return out
}

func (m *refMetrics) Merge(other *refMetrics) {
	for a, ob := range other.buckets {
		b := m.bucket(a)
		for name, c := range ob.cycles {
			b.cycles[name] += c
		}
		for name, n := range ob.counts {
			b.counts[name] += n
		}
	}
}

// refProfile is the map-based profile tree Profile replaced: children keyed
// by frame, leaves keyed by counter name, roots keyed by phase and
// histograms by (kind, domain), every export sorting its keys.
type refProfile struct {
	roots map[string]*refNode
	hists map[HistKey]*Histogram
}

type refNode struct {
	children map[frameKey]*refNode
	leaves   map[string]uint64
}

func newRefProfile() *refProfile {
	return &refProfile{roots: make(map[string]*refNode), hists: make(map[HistKey]*Histogram)}
}

func (n *refNode) Child(kind Kind, name string) *refNode {
	k := frameKey{kind: kind, name: name}
	c := n.children[k]
	if c == nil {
		c = &refNode{}
		if n.children == nil {
			n.children = make(map[frameKey]*refNode)
		}
		n.children[k] = c
	}
	return c
}

func (n *refNode) AddLeaf(name string, cycles uint64) {
	if n.leaves == nil {
		n.leaves = make(map[string]uint64)
	}
	n.leaves[name] += cycles
}

func (p *refProfile) Root(phase string) *refNode {
	if phase == "" {
		phase = "world"
	}
	r := p.roots[phase]
	if r == nil {
		r = &refNode{}
		p.roots[phase] = r
	}
	return r
}

func (p *refProfile) Observe(kind Kind, domain uint32, dur uint64) {
	k := HistKey{Kind: kind, Domain: domain}
	h := p.hists[k]
	if h == nil {
		h = &Histogram{}
		p.hists[k] = h
	}
	h.Record(dur)
}

func (p *refProfile) Hists() []HistEntry {
	out := make([]HistEntry, 0, len(p.hists))
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

func (p *refProfile) HistByKind(kind Kind) *Histogram {
	var h Histogram
	for k, src := range p.hists {
		if k.Kind == kind {
			h.Merge(src)
		}
	}
	return &h
}

func (p *refProfile) Merge(other *refProfile) {
	for phase, r := range other.roots {
		refMergeNode(p.Root(phase), r)
	}
	for k, h := range other.hists {
		dst := p.hists[k]
		if dst == nil {
			dst = &Histogram{}
			p.hists[k] = dst
		}
		dst.Merge(h)
	}
}

func refMergeNode(dst, src *refNode) {
	for name, c := range src.leaves {
		dst.AddLeaf(name, c)
	}
	for k, child := range src.children {
		refMergeNode(dst.Child(k.kind, k.name), child)
	}
}

func (p *refProfile) TotalCycles() uint64 {
	var total uint64
	for _, r := range p.roots {
		total += refNodeTotal(r)
	}
	return total
}

func refNodeTotal(n *refNode) uint64 {
	var total uint64
	for _, c := range n.leaves {
		total += c
	}
	for _, child := range n.children {
		total += refNodeTotal(child)
	}
	return total
}

func (p *refProfile) FoldedLines() []FoldedLine {
	phases := make([]string, 0, len(p.roots))
	for phase := range p.roots {
		phases = append(phases, phase)
	}
	sort.Strings(phases)
	var out []FoldedLine
	for _, phase := range phases {
		out = refAppendFolded(out, p.roots[phase], phase)
	}
	return out
}

func refAppendFolded(out []FoldedLine, n *refNode, prefix string) []FoldedLine {
	leafNames := make([]string, 0, len(n.leaves))
	for name := range n.leaves {
		leafNames = append(leafNames, name)
	}
	sort.Strings(leafNames)
	for _, name := range leafNames {
		out = append(out, FoldedLine{Stack: prefix + ";" + name, Cycles: n.leaves[name]})
	}
	keys := make([]frameKey, 0, len(n.children))
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
		out = refAppendFolded(out, n.children[k], prefix+";"+k.kind.String()+"/"+k.name)
	}
	return out
}

// cursor is one simulated vCPU driving both stores: its attribution, the
// metrics row handle it holds (looked up only when the attribution
// changes, as sim.VCPU does), and its open-span stack in each profile.
type cursor struct {
	attr     Attr
	row      Row
	stack    []*ProfNode
	refStack []*refNode
}

// storeRun drives a Metrics/Profile pair and their reference models with
// the same seeded sequence of attribution changes, phase changes, charges,
// span pushes and pops, duration samples and merges.
type storeRun struct {
	r    histRNG
	m    *Metrics
	refM *refMetrics
	p    *Profile
	refP *refProfile
	cur  []*cursor
}

var (
	propPhases = []string{"", "E2/native", "E2/cloaked", "E14/reboot"}
	propTasks  = []string{"kv", "web", "init"}
	propSpans  = []string{"read", "write", "enter", "encrypt"}
)

func (s *storeRun) pick(n int) int { return int(s.r.next() % uint64(n)) }

func (s *storeRun) randAttr() Attr {
	if s.pick(8) == 0 {
		return Attr{}
	}
	pid := 1 + s.pick(4)
	return Attr{
		Phase:   propPhases[s.pick(len(propPhases))],
		Domain:  uint32(s.pick(3)),
		PID:     pid,
		TID:     pid + s.pick(2),
		Task:    propTasks[s.pick(len(propTasks))],
		Cloaked: s.pick(2) == 0,
	}
}

// charge lands one charge in both stores and both profiles.
func (s *storeRun) charge(c *cursor) {
	slot := s.pick(len(testNames))
	cycles := s.r.next() % 5000
	if s.pick(6) == 0 {
		cycles = 0 // a zero-cycle charge must still export its cell
	}
	var events uint64
	if s.pick(3) != 0 {
		events = 1 + s.r.next()%64
	}
	c.row.Add(slot, cycles, events)
	s.refM.Charge(c.attr, testNames[slot], cycles, events)
	c.stack[len(c.stack)-1].AddLeaf(slot, cycles)
	c.refStack[len(c.refStack)-1].AddLeaf(testNames[slot], cycles)
}

// side builds a small independent store pair for a merge.
func (s *storeRun) side() (*Metrics, *refMetrics, *Profile, *refProfile) {
	m, refM, p, refP := NewMetrics(testCtrs), newRefMetrics(), NewProfile(testCtrs), newRefProfile()
	for range 1 + s.pick(20) {
		a, slot, cycles, events := s.randAttr(), s.pick(len(testNames)), s.r.next()%100, uint64(s.pick(3))
		m.Charge(a, slot, cycles, events)
		refM.Charge(a, testNames[slot], cycles, events)
		phase := propPhases[s.pick(len(propPhases))]
		n, rn := p.Root(phase), refP.Root(phase)
		for range s.pick(3) {
			kind, name := Kind(1+s.pick(4)), propSpans[s.pick(len(propSpans))]
			n, rn = n.Child(kind, name), rn.Child(kind, name)
		}
		n.AddLeaf(slot, cycles)
		rn.AddLeaf(testNames[slot], cycles)
		kind, dom, dur := Kind(1+s.pick(4)), uint32(s.pick(3)), s.r.next()%100000
		p.Observe(kind, dom, dur)
		refP.Observe(kind, dom, dur)
	}
	return m, refM, p, refP
}

func (s *storeRun) step() {
	c := s.cur[s.pick(len(s.cur))]
	switch op := s.pick(100); {
	case op < 10: // dispatch another task on this vCPU
		c.attr = s.randAttr()
		c.row = s.m.Row(c.attr)
	case op < 13: // phase change: re-root every idle stack
		phase := propPhases[s.pick(len(propPhases))]
		root, refRoot := s.p.Root(phase), s.refP.Root(phase)
		for _, o := range s.cur {
			o.attr.Phase = phase
			o.row = s.m.Row(o.attr)
			if len(o.stack) == 1 {
				o.stack[0], o.refStack[0] = root, refRoot
			}
		}
	case op < 25: // open a span
		kind, name := Kind(1+s.pick(6)), propSpans[s.pick(len(propSpans))]
		c.stack = append(c.stack, c.stack[len(c.stack)-1].Child(kind, name))
		c.refStack = append(c.refStack, c.refStack[len(c.refStack)-1].Child(kind, name))
	case op < 35: // close the innermost span and sample its duration
		if len(c.stack) > 1 {
			c.stack, c.refStack = c.stack[:len(c.stack)-1], c.refStack[:len(c.refStack)-1]
		}
		kind, dur := Kind(1+s.pick(6)), s.r.next()%(1<<20)
		s.p.Observe(kind, c.attr.Domain, dur)
		s.refP.Observe(kind, c.attr.Domain, dur)
	case op < 37: // fold in another world's stores
		m, refM, p, refP := s.side()
		s.m.Merge(m)
		s.refM.Merge(refM)
		s.p.Merge(p)
		s.refP.Merge(refP)
	default:
		s.charge(c)
	}
}

// check compares every export of the stores with their references.
func (s *storeRun) check(t *testing.T, when string) {
	t.Helper()
	if got, want := s.m.Snapshot(), s.refM.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot differs from the reference\n got %v\nwant %v", when, got, want)
	}
	if got, want := s.m.TotalsSorted(), s.refM.TotalsSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TotalsSorted = %v, reference %v", when, got, want)
	}
	if got, want := s.m.TotalCycles(), s.refM.TotalCycles(); got != want {
		t.Fatalf("%s: metrics TotalCycles = %d, reference %d", when, got, want)
	}
	if got, want := s.p.FoldedLines(), s.refP.FoldedLines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FoldedLines differ from the reference\n got %v\nwant %v", when, got, want)
	}
	if got, want := s.p.TotalCycles(), s.refP.TotalCycles(); got != want {
		t.Fatalf("%s: profile TotalCycles = %d, reference %d", when, got, want)
	}
	if got, want := s.p.Hists(), s.refP.Hists(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Hists differ from the reference", when)
	}
	for k := Kind(0); k < 8; k++ {
		if got, want := s.p.HistByKind(k), s.refP.HistByKind(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: HistByKind(%v) differs from the reference", when, k)
		}
	}
}

// TestStoresMatchReference drives the dense stores and the map-based
// reference models through the same seeded attribution changes, charges,
// stacks, phases and merges, and demands identical exports at every
// checkpoint, including after merging the whole run into a fresh store.
// Row handles are taken before later rows are created, so the run also
// checks that a handle stays valid as its store grows.
func TestStoresMatchReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := &storeRun{r: histRNG(seed), m: NewMetrics(testCtrs), refM: newRefMetrics(),
				p: NewProfile(testCtrs), refP: newRefProfile()}
			root, refRoot := s.p.Root(""), s.refP.Root("")
			for range 4 {
				s.cur = append(s.cur, &cursor{row: s.m.Row(Attr{}),
					stack: []*ProfNode{root}, refStack: []*refNode{refRoot}})
			}
			for i := 1; i <= 3000; i++ {
				s.step()
				if i%500 == 0 {
					s.check(t, fmt.Sprintf("step %d", i))
				}
			}
			m, p := NewMetrics(testCtrs), NewProfile(testCtrs)
			m.Merge(s.m)
			p.Merge(s.p)
			s.m, s.p = m, p
			s.check(t, "merged into fresh stores")
		})
	}
}
