package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	c := w.Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	w.Boot().ChargeAdd(10, CtrCompute, 0)
	w.Boot().ChargeAdd(5, CtrCompute, 0)
	if got := c.Now(); got != 15 {
		t.Fatalf("Now() = %d, want 15", got)
	}
	if got := w.Boot().Cycles(); got != 15 {
		t.Fatalf("boot vCPU credited %d, want 15", got)
	}
	if got := c.Since(10); got != 5 {
		t.Fatalf("Since(10) = %d, want 5", got)
	}
	if got := c.Since(100); got != 0 {
		t.Fatalf("Since(future) = %d, want 0", got)
	}
}

func TestCyclesString(t *testing.T) {
	cases := []struct {
		in   Cycles
		want string
	}{
		{999, "999 cyc"},
		{1500, "1.5 Kcyc"},
		{2_500_000, "2.50 Mcyc"},
		{3_000_000_000, "3.000 Gcyc"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Inc(CtrSyscall)
	s.Inc(CtrSyscall)
	s.Add(CtrMemAccess, 7)
	if got := s.Get(CtrSyscall); got != 2 {
		t.Fatalf("syscall counter = %d, want 2", got)
	}
	if got := s.Get(CtrMemAccess); got != 7 {
		t.Fatalf("mem counter = %d, want 7", got)
	}
	snap := s.Snapshot()
	s.Inc(CtrSyscall)
	if snap[CtrSyscall] != 2 || len(snap) != 2 {
		t.Fatalf("snapshot = %v, want a copy with {os.syscall:2, mem.access:7}", snap)
	}
}

func TestStatsStringSorted(t *testing.T) {
	s := NewStats()
	s.Inc(CtrTLBMiss)
	s.Inc(CtrCloakFault)
	out := s.String()
	if out == "" {
		t.Fatal("empty stats string")
	}
	// tlb.miss sorts before vmm.fault.cloak
	if idx1, idx2 := indexOf(out, "tlb.miss"), indexOf(out, "vmm.fault.cloak"); idx1 > idx2 {
		t.Fatalf("stats not sorted: %q", out)
	}
}

// TestCounterTable pins the dense counter layout: every Counter constant
// declared in the package's non-test files appears in counterNames exactly
// once, each name's slot is its index there, and the table is sorted by name
// (String and Snapshot export in slot order).
func TestCounterTable(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var consts []string
	listed := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || (g.Tok != token.CONST && g.Tok != token.VAR) {
				continue
			}
			for _, spec := range g.Specs {
				vs := spec.(*ast.ValueSpec)
				if typ, ok := vs.Type.(*ast.Ident); g.Tok == token.CONST && ok && typ.Name == "Counter" {
					for _, n := range vs.Names {
						consts = append(consts, n.Name)
					}
				}
				if g.Tok == token.VAR && vs.Names[0].Name == "counterNames" {
					for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
						listed[elt.(*ast.Ident).Name]++
					}
				}
			}
		}
	}
	if len(consts) != len(counterNames) {
		t.Errorf("%d Counter constants, %d counterNames entries", len(consts), len(counterNames))
	}
	for _, c := range consts {
		if listed[c] != 1 {
			t.Errorf("%s appears %d times in counterNames, want 1", c, listed[c])
		}
	}
	for i, c := range counterNames {
		if got := c.slot(); got != i {
			t.Errorf("%q.slot() = %d, want %d", c, got, i)
		}
	}
	if !slices.IsSorted(counterNames[:]) {
		t.Error("counterNames is not sorted by name")
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincide %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGBytesFills(t *testing.T) {
	r := NewRNG(5)
	p := make([]byte, 37)
	r.Bytes(p)
	zero := 0
	for _, b := range p {
		if b == 0 {
			zero++
		}
	}
	if zero == len(p) {
		t.Fatal("Bytes left buffer all zero")
	}
}

func TestWorldChargeCount(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.Boot().ChargeCount(100, CtrHypercall)
	if w.Now() != 100 {
		t.Fatalf("clock = %d, want 100", w.Now())
	}
	if w.Stats.Get(CtrHypercall) != 1 {
		t.Fatal("counter not incremented")
	}
}

// TestCrashClampCreditsChargingVCPU pins the crash path of the charge: a
// charge on vCPU 1 that crosses an armed deadline stops the clock exactly at
// the deadline, credits vCPU 1 with only the cycles applied, keeps the
// per-vCPU counters summing to the clock, and unwinds before any counter
// attribution.
func TestCrashClampCreditsChargingVCPU(t *testing.T) {
	w := NewWorldN(DefaultCostModel(), 1, 2)
	boot, cpu1 := w.VCPUs()[0], w.VCPUs()[1]
	boot.ChargeAdd(100, CtrCompute, 0)
	cpu1.ChargeAdd(50, CtrCompute, 0)
	const deadline = Cycles(400)
	w.Clock.SetCrashAt(deadline)

	var got any
	func() {
		defer func() { got = recover() }()
		cpu1.ChargeCount(1000, CtrSyscall)
	}()
	if got != (Crash{At: deadline}) {
		t.Fatalf("recovered %v, want Crash{At: %d}", got, deadline)
	}
	if now := w.Now(); now != deadline {
		t.Fatalf("clock = %d, want clamped to %d", now, deadline)
	}
	if c := cpu1.Cycles(); c != 50+250 {
		t.Fatalf("vCPU 1 credited %d, want 300 (50 + the 250 applied)", c)
	}
	if sum := boot.Cycles() + cpu1.Cycles(); sum != w.Now() {
		t.Fatalf("per-vCPU cycles sum to %d, clock at %d", sum, w.Now())
	}
	if !w.Clock.Crashed() {
		t.Fatal("Crashed() false after the deadline fired")
	}
	if n := w.Stats.Get(CtrSyscall); n != 0 {
		t.Fatalf("crashed charge still counted %d syscalls", n)
	}
}

func TestCostModelHelpers(t *testing.T) {
	m := DefaultCostModel()
	if got, want := m.PageCryptCost(4096), m.AESSetup+4096*m.AESPerByte; got != want {
		t.Fatalf("PageCryptCost = %d, want %d", got, want)
	}
	if got, want := m.PageHashCost(4096), m.SHASetup+4096*m.SHAPerByte; got != want {
		t.Fatalf("PageHashCost = %d, want %d", got, want)
	}
}

func TestDefaultCostModelSanity(t *testing.T) {
	m := DefaultCostModel()
	// The relationships the experiments rely on: crypto dominates a world
	// switch; disk dominates crypto; a TLB miss is cheaper than a fault.
	if m.PageCryptCost(4096) <= m.WorldSwitch {
		t.Fatal("page crypt should cost more than a world switch")
	}
	if m.DiskSeek <= m.PageCryptCost(4096) {
		t.Fatal("disk seek should dominate page crypto")
	}
	if m.TLBMiss >= m.HiddenFault {
		t.Fatal("TLB miss should be cheaper than a hidden fault")
	}
}

// TestRetrySchedule pins the machine's one retry schedule: 3 retries after
// the first try, pausing 20k, 40k and 80k cycles.
func TestRetrySchedule(t *testing.T) {
	if RetryAttempts != 3 {
		t.Fatalf("RetryAttempts = %d, want 3", RetryAttempts)
	}
	for n, want := range []Cycles{20_000, 40_000, 80_000} {
		if got := RetryBackoff(n); got != want {
			t.Fatalf("RetryBackoff(%d) = %d, want %d", n, got, want)
		}
	}
}
