package lint

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadAllCoversModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "overshadow" {
		t.Fatalf("module path = %q, want overshadow", loader.ModulePath)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]*Package)
	for _, p := range pkgs {
		got[p.Path] = p
	}
	for _, path := range []string{
		"overshadow/internal/sim",
		"overshadow/internal/mach",
		"overshadow/internal/vmm",
		"overshadow/internal/guestos",
		"overshadow/internal/cloak",
		"overshadow/cmd/overlint",
	} {
		p := got[path]
		if p == nil {
			t.Errorf("LoadAll missed %s", path)
			continue
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s loaded without type information", path)
		}
	}
	if _, ok := got["overshadow/internal/lint/testdata/src/determinism"]; ok {
		t.Error("LoadAll descended into a testdata directory")
	}
}

// TestTreeClean pins the clean-tree invariant: the production analyzer
// set must report nothing on the repository itself. A regression here is
// exactly what `go run ./cmd/overlint ./...` would flag in CI.
func TestTreeClean(t *testing.T) {
	var out bytes.Buffer
	findings, err := Run(&out, ".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("tree not overlint-clean: %s", f)
	}
}

func TestParseAllowText(t *testing.T) {
	cases := []struct {
		text      string
		ok        bool
		analyzers []string
		reason    string
	}{
		{"//overlint:allow determinism -- baton-scheduled", true, []string{"determinism"}, "baton-scheduled"},
		{"//overlint:allow determinism,cyclecharge -- two at once", true, []string{"determinism", "cyclecharge"}, "two at once"},
		{"//overlint:allow determinism", false, nil, ""},    // no reason
		{"//overlint:allow determinism --", false, nil, ""}, // empty reason
		{"//overlint:allow -- reason but no analyzer", false, nil, ""},
		{"//overlint:allowx determinism -- smushed prefix", false, nil, ""},
	}
	for _, c := range cases {
		d, ok := parseAllowText(c.text)
		if ok != c.ok {
			t.Errorf("parseAllowText(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if strings.Join(d.Analyzers, ",") != strings.Join(c.analyzers, ",") {
			t.Errorf("parseAllowText(%q) analyzers = %v, want %v", c.text, d.Analyzers, c.analyzers)
		}
		if d.Reason != c.reason {
			t.Errorf("parseAllowText(%q) reason = %q, want %q", c.text, d.Reason, c.reason)
		}
	}
}

// TestMalformedAllowIsAFinding loads a testdata package whose directives are
// malformed — one has no reason, the others name no production analyzer (a
// deleted analyzer, the old "*" wildcard) — and checks that the driver
// reports each under analyzer "overlint".
func TestMalformedAllowIsAFinding(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const path = "overshadow/internal/lintbad"
	loader.Overrides = map[string]string{path: "testdata/src/malformedallow"}
	if _, err := loader.Load(path); err != nil {
		t.Fatal(err)
	}
	findings := Analyze(loader, loader.order, []*Analyzer{}, nil)
	want := []string{"<reason>", `"hotpathalloc"`, `"*"`}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(want), findings)
	}
	for i, f := range findings {
		if f.Analyzer != "overlint" || !strings.Contains(f.Message, "malformed directive") ||
			!strings.Contains(f.Message, want[i]) {
			t.Errorf("finding %d = %s, want a malformed directive mentioning %s", i, f, want[i])
		}
	}
}

func TestAllowSuppression(t *testing.T) {
	set := &allowSet{byLine: map[string]map[int][]allowDirective{
		"k.go": {
			10: {{Analyzers: []string{"determinism"}}},
		},
	}}
	for _, c := range []struct {
		analyzer string
		file     string
		line     int
		want     bool
	}{
		{"determinism", "k.go", 10, true},
		{"determinism", "k.go", 11, true}, // directive on the line above
		{"determinism", "k.go", 12, false},
		{"cyclecharge", "k.go", 10, false}, // different analyzer
		{"determinism", "other.go", 10, false},
	} {
		if got := set.allows(c.analyzer, c.file, c.line); got != c.want {
			t.Errorf("allows(%s, %s:%d) = %v, want %v", c.analyzer, c.file, c.line, got, c.want)
		}
	}
}

func TestRenderText(t *testing.T) {
	in := []Finding{
		{File: "a.go", Line: 3, Col: 2, Analyzer: "determinism", Message: "m"},
	}
	var buf bytes.Buffer
	if err := Render(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "a.go:3: determinism: m" {
		t.Errorf("text render = %q", got)
	}
}

func TestMatchPattern(t *testing.T) {
	const mod = "overshadow"
	for _, c := range []struct {
		pattern string
		pkg     string
		want    bool
	}{
		{"./...", "overshadow/internal/vmm", true},
		{"./...", "overshadow", true},
		{".", "overshadow", true},
		{".", "overshadow/internal/vmm", false},
		{"./internal/vmm", "overshadow/internal/vmm", true},
		{"./internal/vmm", "overshadow/internal/vmm/sub", false},
		{"./internal/...", "overshadow/internal/guestos", true},
		{"overshadow/internal/vmm", "overshadow/internal/vmm", true},
		{"overshadow/internal/...", "overshadow/internal/cloak", true},
		{"overshadow/internal/...", "overshadow/cmd/overlint", false},
	} {
		if got := matchPattern(c.pattern, mod, c.pkg); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pattern, c.pkg, got, c.want)
		}
	}
}
