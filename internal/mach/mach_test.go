package mach

import (
	"bytes"
	"testing"
	"testing/quick"

	"overshadow/internal/fault"
	"overshadow/internal/sim"
)

func testWorld() *sim.World { return sim.NewWorld(sim.DefaultCostModel(), 1) }

func TestPageArithmetic(t *testing.T) {
	if PageOf(0x1234) != 1 {
		t.Fatalf("PageOf(0x1234) = %d, want 1", PageOf(0x1234))
	}
	if PageOffset(0x1234) != 0x234 {
		t.Fatalf("PageOffset = %#x, want 0x234", PageOffset(0x1234))
	}
	if PageBase(0x1234) != 0x1000 {
		t.Fatalf("PageBase = %#x, want 0x1000", PageBase(0x1234))
	}
}

func TestPageArithmeticProperty(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		return uint64(PageBase(addr))+PageOffset(addr) == a &&
			PageOf(addr) == uint64(PageBase(addr))>>PageShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryPageIsolation(t *testing.T) {
	m := NewMemory(4)
	p1, p2 := m.Page(1), m.Page(2)
	p1[0] = 0xAA
	if p2[0] != 0 {
		t.Fatal("write to frame 1 visible in frame 2")
	}
	m.Zero(1)
	if p1[0] != 0 {
		t.Fatal("Zero did not clear frame")
	}
}

func TestMemoryBoundsPanic(t *testing.T) {
	m := NewMemory(2)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Page", func() { m.Page(5) }},
		{"Zero", func() { m.Zero(2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-range %s did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
}

func TestMemoryUntouchedFrameReadsZero(t *testing.T) {
	p := NewMemory(3).Page(2)
	if len(p) != PageSize {
		t.Fatalf("frame is %d bytes, want %d", len(p), PageSize)
	}
	if !bytes.Equal(p, make([]byte, PageSize)) {
		t.Fatal("never-touched frame does not read as zeros")
	}
}

func TestMemoryZeroLeavesUntouchedFrameUnbacked(t *testing.T) {
	m := NewMemory(3)
	if allocs := testing.AllocsPerRun(100, func() { m.Zero(1) }); allocs != 0 {
		t.Fatalf("Zero of a never-touched frame allocated %v times per run", allocs)
	}
	if m.frames[1] != nil {
		t.Fatal("Zero backed a never-touched frame")
	}
}

func TestMemoryWritesSurviveUntilZero(t *testing.T) {
	m := NewMemory(3)
	p := m.Page(1)
	p[0], p[PageSize-1] = 0xAA, 0x55
	if q := m.Page(1); q[0] != 0xAA || q[PageSize-1] != 0x55 {
		t.Fatalf("bytes lost between Page calls: %#x %#x", q[0], q[PageSize-1])
	}
	m.Zero(1)
	if !bytes.Equal(m.Page(1), make([]byte, PageSize)) {
		t.Fatal("Zero did not clear the written frame")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 8)
	src := make([]byte, BlockSize)
	for i := range src {
		src[i] = byte(i)
	}
	if err := d.Write(3, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := d.Read(3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("disk round trip corrupted data")
	}
}

func TestDiskUnwrittenReadsZero(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 8)
	dst := make([]byte, BlockSize)
	dst[0] = 0xFF
	if err := d.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Fatal("unwritten block not zero")
	}
}

func TestDiskBounds(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 2)
	buf := make([]byte, BlockSize)
	if err := d.Read(2, buf); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := d.Write(9, buf); err == nil {
		t.Fatal("write past end succeeded")
	}
	if err := d.Read(0, buf[:10]); err == nil {
		t.Fatal("short buffer read succeeded")
	}
	if err := d.Write(0, buf[:10]); err == nil {
		t.Fatal("short buffer write succeeded")
	}
}

func TestDiskChargesLatency(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 2)
	buf := make([]byte, BlockSize)
	before := w.Now()
	if err := d.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := w.Clock.Since(before)
	want := w.Cost.DiskSeek + sim.Cycles(BlockSize)*w.Cost.DiskPerByte
	if elapsed != want {
		t.Fatalf("write charged %d cycles, want %d", elapsed, want)
	}
	if w.Stats.Get(sim.CtrDiskWrite) != 1 {
		t.Fatal("disk write counter not incremented")
	}
}

func TestDiskPeekPoke(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 2)
	if d.Peek(1) != nil {
		t.Fatal("Peek of unwritten block not nil")
	}
	src := make([]byte, BlockSize)
	src[5] = 0x42
	d.Poke(1, src)
	before := w.Now()
	got := d.Peek(1)
	if got == nil || got[5] != 0x42 {
		t.Fatal("Poke/Peek mismatch")
	}
	if w.Now() != before {
		t.Fatal("Peek charged latency")
	}
}

// TestDiskPeekReturnsCopy pins the aliasing fix: mutating a Peek result
// must not change device state (tampering goes through Poke/PokeRaw so it
// can never silently bypass Write's accounting and fault injection).
func TestDiskPeekReturnsCopy(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 2)
	src := make([]byte, BlockSize)
	src[0] = 0x11
	d.Poke(0, src)
	snap := d.Peek(0)
	snap[0] = 0x99
	if got := d.Peek(0); got[0] != 0x11 {
		t.Fatal("mutating a Peek result changed device state")
	}
	// PokeRaw is the explicit aliasing escape hatch.
	raw := d.PokeRaw(0)
	raw[0] = 0x77
	if got := d.Peek(0); got[0] != 0x77 {
		t.Fatal("PokeRaw did not alias device state")
	}
	if d.PokeRaw(1) != nil {
		t.Fatal("PokeRaw of unwritten block not nil")
	}
}

// TestTornWriteSemantics is the satellite property test: after an injected
// fault.Torn write, a re-read observes exactly prefix-of-new content with
// the stale suffix intact — for some tear point 1 <= n < BlockSize.
func TestTornWriteSemantics(t *testing.T) {
	w := testWorld()
	d := NewDisk(w, 2)
	oldC := make([]byte, BlockSize)
	newC := make([]byte, BlockSize)
	for i := range oldC {
		oldC[i] = 0xAA
		newC[i] = 0x55
	}
	if err := d.Write(0, oldC); err != nil {
		t.Fatal(err)
	}
	// Arm a certain torn fault for the next write only.
	var plan fault.Plan
	plan.Rates[fault.SiteDiskWrite] = fault.Rate{TornPerMille: 1000, Max: 1}
	w.Fault = fault.NewInjector(9, plan)
	if err := d.Write(0, newC); err == nil {
		t.Fatal("torn write reported success")
	}
	got := make([]byte, BlockSize)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < BlockSize && got[n] == 0x55 {
		n++
	}
	if n < 1 || n >= BlockSize {
		t.Fatalf("tear point %d outside [1, %d)", n, BlockSize)
	}
	for i := n; i < BlockSize; i++ {
		if got[i] != 0xAA {
			t.Fatalf("byte %d = %#x after tear at %d: not prefix-of-new + stale-suffix", i, got[i], n)
		}
	}
}

// TestDiskReadRetry: ReadRetry survives up to ReadAttempts-1 failed reads,
// returns the error once all ReadAttempts fail, and reads once when nothing
// fails.
func TestDiskReadRetry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		failMax   int // 0 = no fault plan
		wantErr   bool
		wantReads uint64
	}{
		{"two-failures", 2, false, 3},
		{"three-failures", 3, true, 3},
		{"no-plan", 0, false, 1},
	} {
		w := testWorld()
		if tc.failMax > 0 {
			var plan fault.Plan
			plan.Rates[fault.SiteDiskRead] = fault.Rate{FailPerMille: 1000, Max: tc.failMax}
			w.Fault = fault.NewInjector(1, plan)
		}
		d := NewDisk(w, 2)
		err := d.ReadRetry(1, make([]byte, BlockSize))
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: ReadRetry err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if got := w.Stats.Get(sim.CtrDiskRead); got != tc.wantReads {
			t.Fatalf("%s: %d disk reads, want %d", tc.name, got, tc.wantReads)
		}
	}
}
