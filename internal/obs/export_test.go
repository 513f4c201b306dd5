package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureSpans builds a small hand-written trace exercising every export
// path: VMM-track kinds, task-track kinds, and an instant event.
func fixtureSpans() ([]Span, RingStats) {
	app := Attr{Phase: "E2/cloaked", Domain: 2, PID: 3, TID: 3, Task: "kv", Cloaked: true}
	web := Attr{Phase: "E2/native", PID: 4, TID: 5, Task: "web"}
	spans := []Span{
		{Start: 100, Dur: 800, Kind: KindWorldSwitch, Name: "enter", Attr: app},
		{Start: 900, Dur: 300, Kind: KindCTC, Name: "save", Attr: app},
		{Start: 1200, Dur: 4100, Kind: KindSyscall, Name: "write", Arg: 64, Attr: app},
		{Start: 1500, Dur: 2000, Kind: KindHypercall, Name: "register_region", Attr: app},
		{Start: 4000, Dur: 43240, Kind: KindCloak, Name: "encrypt", Arg: 7, Attr: app},
		{Start: 50000, Dur: 549152, Kind: KindDisk, Name: "write", Arg: 12, Attr: app},
		{Start: 600000, Dur: 1200, Kind: KindCtxSwitch, Name: "switch", Arg: 5, Attr: web},
		{Start: 601500, Instant: true, Kind: KindSwap, Name: "out", Arg: 9, Attr: web},
		{Start: 602000, Dur: 60, Kind: KindPageFault, Name: "demand", Arg: 11, Attr: web},
		{Start: 700000, Instant: true, Kind: KindSecurity, Name: "integrity violation", Arg: 7, Attr: web},
	}
	return spans, RingStats{Total: 12, Dropped: 2, Wrapped: true}
}

func fixtureMetrics() *Metrics {
	m := NewMetrics(testCtrs)
	app := Attr{Phase: "E2/cloaked", Domain: 2, PID: 3, TID: 3, Task: "kv", Cloaked: true}
	m.Charge(app, slotOf("cloak.encrypt"), 43240, 1)
	m.Charge(app, slotOf("vmm.worldswitch"), 1600, 2)
	m.Charge(app, slotOf("vmm.ctc.save"), 300, 1)
	m.Charge(app, slotOf("mem.access"), 256, 64)
	m.Charge(Attr{Phase: "E2/native", PID: 4, TID: 5, Task: "web"}, slotOf("mem.access"), 128, 32)
	m.Charge(Attr{}, slotOf("cpu.idle"), 5000, 0)
	return m
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	spans, ring := fixtureSpans()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, ring); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_fixture.json", buf.Bytes())
}

func TestMetricsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, fixtureMetrics()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_fixture.json", buf.Bytes())
}

func TestExportsAreByteStable(t *testing.T) {
	// Same inputs twice => identical bytes, regardless of map iteration.
	render := func() (string, string) {
		spans, ring := fixtureSpans()
		var c, m bytes.Buffer
		if err := WriteChromeTrace(&c, spans, ring); err != nil {
			t.Fatal(err)
		}
		if err := WriteMetricsJSON(&m, fixtureMetrics()); err != nil {
			t.Fatal(err)
		}
		return c.String(), m.String()
	}
	c1, m1 := render()
	c2, m2 := render()
	if c1 != c2 {
		t.Error("chrome export not byte-stable")
	}
	if m1 != m2 {
		t.Error("metrics export not byte-stable")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans, ring := fixtureSpans()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, ring); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.OtherData.DroppedSpans != 2 || !parsed.OtherData.RingWrapped {
		t.Fatalf("ring state lost: %+v", parsed.OtherData)
	}
	var xCount, iCount, mCount int
	tids := map[int]bool{}
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "X":
			xCount++
			tids[ev.Tid] = true
		case "i":
			iCount++
		case "M":
			mCount++
		}
	}
	if xCount != 8 || iCount != 2 {
		t.Fatalf("event counts: X=%d i=%d", xCount, iCount)
	}
	// VMM track plus the two task tracks.
	if !tids[vmmTrack] || !tids[3] || !tids[5] {
		t.Fatalf("tracks = %v", tids)
	}
	// process_name + VMM thread_name + two task thread_names.
	if mCount != 4 {
		t.Fatalf("metadata events = %d", mCount)
	}
}

func TestKindStrings(t *testing.T) {
	if KindSyscall.String() != "syscall" || KindCloak.String() != "cloak" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("out-of-range kind")
	}
}
