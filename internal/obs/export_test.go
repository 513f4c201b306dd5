package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

// fixtureReport joins fixtureMetrics with a profile of the same charges
// under hand-picked call chains, a few span durations, and two dropped
// spans.
func fixtureReport() *Report {
	p := NewProfile(testCtrs)
	app := p.Root("E2/cloaked")
	app.Child(KindSyscall, "write").Child(KindCloak, "encrypt").AddLeaf(slotOf("cloak.encrypt"), 43240)
	app.Child(KindWorldSwitch, "enter").AddLeaf(slotOf("vmm.worldswitch"), 1600)
	app.Child(KindCTC, "save").AddLeaf(slotOf("vmm.ctc.save"), 300)
	app.AddLeaf(slotOf("mem.access"), 256)
	p.Root("E2/native").AddLeaf(slotOf("mem.access"), 128)
	p.Root("").AddLeaf(slotOf("cpu.idle"), 5000)
	p.Observe(KindSyscall, 2, 4100)
	p.Observe(KindWorldSwitch, 2, 800)
	p.Observe(KindWorldSwitch, 2, 800)
	p.Observe(KindCtxSwitch, 0, 1200)
	return BuildReport(fixtureMetrics(), p, 2)
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

func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, fixtureReport()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_fixture.json", buf.Bytes())
	r, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, fixtureReport()) {
		t.Fatalf("report did not survive a write/parse round trip:\n%+v", r)
	}
	if _, err := ParseReport(bytes.Replace(buf.Bytes(), []byte(ReportSchema), []byte("overshadow-report/v0"), 1)); err == nil {
		t.Fatal("ParseReport accepted a foreign schema")
	}
}

func TestExportsAreByteStable(t *testing.T) {
	// Same inputs twice => identical bytes, regardless of map iteration.
	render := func() (string, string) {
		spans, ring := fixtureSpans()
		var c, r bytes.Buffer
		if err := WriteChromeTrace(&c, spans, ring); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&r, fixtureReport()); err != nil {
			t.Fatal(err)
		}
		return c.String(), r.String()
	}
	c1, r1 := render()
	c2, r2 := render()
	if c1 != c2 {
		t.Error("chrome export not byte-stable")
	}
	if r1 != r2 {
		t.Error("report export not byte-stable")
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
