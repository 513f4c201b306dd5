package harness

import (
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seed: 7} }

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 16 {
		t.Fatalf("registry has %d experiments, want 16", len(reg))
	}
	for _, e := range reg {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("incomplete experiment %+v", e)
		}
	}
	if _, ok := ByID("e3"); !ok {
		t.Fatal("ByID case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID found a ghost")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "EX", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("row with a long name", 1.5, 2e9)
	tab.Note("hello %d", 42)
	out := tab.String()
	for _, want := range []string{"EX — demo", "row with a long name", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestE1MicrobenchmarksShape(t *testing.T) {
	tab := RunE1(quick())
	if len(tab.Rows) != len(microRowOrder) {
		t.Fatalf("E1 rows = %d, want %d", len(tab.Rows), len(microRowOrder))
	}
	byName := map[string][]float64{}
	for _, r := range tab.Rows {
		byName[r.Name] = r.Values
	}
	// Every cloaked operation must cost at least as much as native.
	for name, v := range byName {
		if v[0] <= 0 || v[1] <= 0 {
			t.Errorf("%s: non-positive cost %v", name, v)
		}
		if v[2] < 1.0 {
			t.Errorf("%s: cloaked faster than native (%.2fx)", name, v[2])
		}
	}
	// The paper's shape: null syscall slowdown is a small constant factor;
	// fork is the most expensive relative operation.
	if byName["fork+wait"][2] <= byName["null syscall"][2] {
		t.Errorf("fork slowdown (%.1fx) should exceed null syscall slowdown (%.1fx)",
			byName["fork+wait"][2], byName["null syscall"][2])
	}
}

func TestE2BreakdownShape(t *testing.T) {
	tab := RunE2(quick())
	vals := map[string]float64{}
	for _, r := range tab.Rows {
		vals[r.Name] = r.Values[0]
	}
	if vals["kernel touch (encrypt+hash)"] <= vals["trap enter (CTC save+scrub)"] {
		t.Error("page crypto should dominate CTC save")
	}
	if vals["app re-touch (verify+decrypt)"] <= 0 {
		t.Error("decrypt cost missing")
	}
}

func TestE3CPUOverheadSmall(t *testing.T) {
	tab := RunE3(quick())
	for _, r := range tab.Rows {
		overhead := r.Values[2]
		if overhead < -1 {
			t.Errorf("%s: cloaked faster than native (%.1f%%)", r.Name, overhead)
		}
		if overhead >= 10 {
			t.Errorf("%s: CPU-bound overhead %.1f%% not single digits — cloaking should be nearly free here", r.Name, overhead)
		}
	}
}

func TestE4WebServerOverheadModerate(t *testing.T) {
	tab := RunE4(quick())
	for _, r := range tab.Rows {
		if r.Values[0] <= 0 || r.Values[1] <= 0 {
			t.Fatalf("%s: empty throughput", r.Name)
		}
		if r.Values[2] < 0 {
			t.Errorf("%s: negative overhead %.1f%%", r.Name, r.Values[2])
		}
	}
}

func TestE5FileIOOrdering(t *testing.T) {
	tab := RunE5(quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	native := tab.Rows[0].Values[0]
	marshalled := tab.Rows[1].Values[0]
	if marshalled >= native {
		t.Errorf("marshalled I/O (%.2f) should be slower than native (%.2f)", marshalled, native)
	}
}

func TestE6PagingShape(t *testing.T) {
	tab := RunE6(quick())
	// Below RAM no page-outs; above RAM, plenty — and the absolute cost of
	// cloaking (crypto per swap event) must grow with pressure.
	if tab.Rows[0].Values[3] != 0 {
		t.Errorf("pageouts at ws/ram=0.5: %v", tab.Rows[0].Values[3])
	}
	last := len(tab.Rows) - 1
	if tab.Rows[last].Values[3] == 0 {
		t.Error("no pageouts at ws/ram=1.6")
	}
	deltaLow := tab.Rows[0].Values[2]
	deltaHigh := tab.Rows[last].Values[2]
	if deltaHigh <= deltaLow {
		t.Errorf("cloaking delta should grow with pressure: %.2f -> %.2f Mcyc",
			deltaLow, deltaHigh)
	}
}

func TestE7MetadataPerPage(t *testing.T) {
	tab := RunE7(quick())
	for _, r := range tab.Rows {
		perPage := r.Values[2]
		if perPage <= 0 {
			t.Errorf("%s: no metadata measured", r.Name)
			continue
		}
		if perPage > 100 {
			t.Errorf("%s: %.0f bytes/page exceeds record size", r.Name, perPage)
		}
	}
}

func TestE8AllAttacksContained(t *testing.T) {
	tab := RunE8(quick())
	for _, r := range tab.Rows {
		attempted, leaked, corrupted, detected := r.Values[0], r.Values[1], r.Values[2], r.Values[3]
		if attempted == 0 {
			t.Errorf("%s: attack never ran", r.Name)
		}
		if leaked != 0 {
			t.Errorf("%s: plaintext leaked", r.Name)
		}
		if corrupted != 0 {
			t.Errorf("%s: silent corruption", r.Name)
		}
		if detected == 0 {
			t.Errorf("%s: not detected/contained", r.Name)
		}
	}
}

// TestE13FaultSweepContained asserts the failure-model contract on every
// scenario: faults actually fire, containment never crosses the domain
// boundary, nothing leaks, quarantine reclaims fully, and the transient
// scenarios finish their victim.
func TestE13FaultSweepContained(t *testing.T) {
	tab := RunE13(quick())
	if len(tab.Rows) != len(e13scenarios) {
		t.Fatalf("E13 rows = %d, want %d", len(tab.Rows), len(e13scenarios))
	}
	for i, r := range tab.Rows {
		sc := e13scenarios[i]
		faults, retries, quar := r.Values[0], r.Values[1], r.Values[2]
		victimDone, sibling, leakFree, residue := r.Values[3], r.Values[4], r.Values[5], r.Values[6]
		if faults == 0 {
			t.Errorf("%s: no faults injected", r.Name)
		}
		if sc.wantQuarantine && quar == 0 {
			t.Errorf("%s: expected a quarantine, got none", r.Name)
		}
		if !sc.wantQuarantine && quar != 0 {
			t.Errorf("%s: unexpected quarantine (%v)", r.Name, quar)
		}
		if sc.wantVictimDone && victimDone != 1 {
			t.Errorf("%s: victim did not finish under transient faults", r.Name)
		}
		if sc.wantQuarantine && victimDone != 0 {
			t.Errorf("%s: quarantined victim reported success", r.Name)
		}
		if sc.name == "hypercall-transient" && retries == 0 {
			t.Errorf("%s: shim never retried", r.Name)
		}
		// Single-site scenarios never touch the sibling. Under the
		// multi-site storm the sibling may take its own injected fault and
		// be independently quarantined (quar > 1) — that is per-domain
		// containment, not cross-domain damage.
		if sibling != 1 && !(sc.name == "mixed-storm" && quar > 1) {
			t.Errorf("%s: sibling domain damaged", r.Name)
		}
		if leakFree != 1 {
			t.Errorf("%s: plaintext found on disk", r.Name)
		}
		if residue != 1 {
			t.Errorf("%s: quarantine left VMM residue", r.Name)
		}
	}
}

// TestE14CrashSweepRecovers asserts the recovery contract at every crash
// point: the sweep derives all eight points, every deadline inside the run
// actually crashes the machine, mid-run crashes recover real pages, and
// secrecy/integrity/freshness hold everywhere.
func TestE14CrashSweepRecovers(t *testing.T) {
	tab := RunE14(quick())
	if len(tab.Rows) != 8 {
		t.Fatalf("E14 rows = %d, want 8 crash points", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		crashed, recovered, unavailable := r.Values[0], r.Values[1], r.Values[2]
		replayKcyc := r.Values[4]
		secrecy, integrity, freshness := r.Values[5], r.Values[6], r.Values[7]
		switch r.Name {
		case "post-quiesce":
			// The deadline lies past the clean shutdown: no crash, and the
			// quiesced journal holds an empty table (domains exited).
			if crashed != 0 {
				t.Errorf("%s: crashed past the end of the run", r.Name)
			}
			if recovered != 0 || unavailable != 0 {
				t.Errorf("%s: %v/%v pages survive clean domain teardown, want 0/0",
					r.Name, recovered, unavailable)
			}
		case "mid-first-append":
			// Almost nothing journaled yet; just require the crash happened.
			if crashed != 1 {
				t.Errorf("%s: machine did not crash", r.Name)
			}
		default:
			if crashed != 1 {
				t.Errorf("%s: machine did not crash", r.Name)
			}
			if recovered == 0 {
				t.Errorf("%s: mid-run crash of a swap-heavy workload recovered nothing", r.Name)
			}
		}
		if replayKcyc <= 0 {
			t.Errorf("%s: replay charged no cycles", r.Name)
		}
		if secrecy != 1 {
			t.Errorf("%s: plaintext marker found on the surviving disk", r.Name)
		}
		if integrity != 1 {
			t.Errorf("%s: a recovered page failed verification or an unavailable page carried data", r.Name)
		}
		if freshness != 1 {
			t.Errorf("%s: replay accepted or mis-flagged rollback records", r.Name)
		}
	}
}

func TestE9ForkHeavyOverheadLargest(t *testing.T) {
	tab := RunE9(quick())
	for _, r := range tab.Rows {
		if r.Values[2] <= 0 {
			t.Errorf("%s: fork-heavy cloaked run should cost more (got %.1f%%)", r.Name, r.Values[2])
		}
	}
}

func TestE11ShmBeatsPipe(t *testing.T) {
	tab := RunE11(quick())
	pipe, shm := tab.Rows[0].Values[0], tab.Rows[1].Values[0]
	if pipe <= 0 || shm <= 0 {
		t.Fatalf("empty throughput: %v %v", pipe, shm)
	}
	if shm <= pipe {
		t.Errorf("protected shm (%.0f) should beat marshalled pipe (%.0f)", shm, pipe)
	}
}

func TestE12KVServiceShape(t *testing.T) {
	tab := RunE12(quick())
	for _, r := range tab.Rows {
		if r.Values[0] <= 0 || r.Values[1] <= 0 {
			t.Fatalf("%s: empty throughput", r.Name)
		}
		if r.Values[2] < 0 {
			t.Errorf("%s: cloaked faster than native (%.1f%%)", r.Name, r.Values[2])
		}
	}
}

func TestE10AblationsCostMore(t *testing.T) {
	tab := RunE10(quick())
	base := tab.Rows[0].Values[0]
	if base <= 0 {
		t.Fatal("no baseline")
	}
	noMS := tab.Rows[1].Values[1]
	if noMS <= 1.0 {
		t.Errorf("removing multi-shadowing should cost more, got %.2fx", noMS)
	}
	flush := tab.Rows[2].Values[1]
	if flush < 1.0 {
		t.Errorf("untagged TLB should not be faster, got %.2fx", flush)
	}
}
