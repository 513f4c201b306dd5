package lint

import "testing"

// Each analyzer runs over a testdata package presented under a production
// import path, so the analyzers' package-path gates fire exactly as on the
// real tree.

func TestDeterminismAnalyzer(t *testing.T) {
	runWantTest(t, DeterminismAnalyzer,
		"overshadow/internal/sim", "testdata/src/determinism")
}

// TestDeterminismAnalyzerCoversObs loads a tracer-shaped package under the
// internal/obs import path: host-clock reads inside the observability layer
// must be findings, or trace exports would stop being bit-identical.
func TestDeterminismAnalyzerCoversObs(t *testing.T) {
	runWantTest(t, DeterminismAnalyzer,
		"overshadow/internal/obs", "testdata/src/obsdeterminism")
}

// TestDeterminismAnalyzerCoversPersist loads a journal-shaped package under
// the internal/persist import path: ranging over a map in a package that
// serializes to stable storage must be a finding unless a reviewed allow
// comment records why the order cannot reach the bytes.
func TestDeterminismAnalyzerCoversPersist(t *testing.T) {
	runWantTest(t, DeterminismAnalyzer,
		"overshadow/internal/persist", "testdata/src/persistenc")
}

// TestDeterminismInjectorSeedRule loads a core-shaped package (NOT in the
// gated set): host-randomness expressions feeding fault.NewInjector's seed
// must be findings even where general host-time use is allowed.
func TestDeterminismInjectorSeedRule(t *testing.T) {
	runWantTest(t, DeterminismAnalyzer,
		"overshadow/internal/core", "testdata/src/faultseed")
}

func TestCloakBoundaryAnalyzer(t *testing.T) {
	runWantTest(t, CloakBoundaryAnalyzer,
		"overshadow/internal/guestos", "testdata/src/cloakboundary")
}

// TestCloakBoundaryConnRule loads a shim-shaped package exercising the
// sanctioned hypercall surface: the typed DomainConn handle, ConnOf,
// HCCreateDomain, and the vault calls must all pass with zero findings.
// (The raw HC* forwarders were removed, so the rule is a backstop.)
func TestCloakBoundaryConnRule(t *testing.T) {
	runWantTest(t, CloakBoundaryAnalyzer,
		"overshadow/internal/shim", "testdata/src/conncall")
}

func TestErrnoDisciplineAnalyzer(t *testing.T) {
	runWantTest(t, ErrnoDisciplineAnalyzer,
		"overshadow/internal/guestos", "testdata/src/errnodiscipline")
}

// TestSMPReadyAnalyzer loads a vmm-shaped package: written package-level vars
// are findings, and a mutex-less struct written from two entry paths passes.
func TestSMPReadyAnalyzer(t *testing.T) {
	runWantTest(t, SMPReadyAnalyzer,
		"overshadow/internal/vmm", "testdata/src/smpready")
}

func TestCycleChargeAnalyzer(t *testing.T) {
	runWantTest(t, CycleChargeAnalyzer,
		"overshadow/internal/vmm", "testdata/src/cyclecharge")
}

// TestAnalyzerGatesOtherPackages checks the package-path gates: the same
// testdata loaded under an unchecked import path must produce no findings.
func TestAnalyzerGatesOtherPackages(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// cmd/overbench-style host code is allowed to read the wall clock.
	const path = "overshadow/cmd/fakebench"
	loader.Overrides = map[string]string{path: "testdata/src/determinism"}
	if _, err := loader.Load(path); err != nil {
		t.Fatal(err)
	}
	findings := Analyze(loader, loader.order, []*Analyzer{DeterminismAnalyzer}, nil)
	for _, f := range findings {
		t.Errorf("unexpected finding outside checked set: %s", f)
	}
}

// TestIagoFlowAnalyzer loads a shim-shaped package under the internal/shim
// import path: kernel-returned values must reach their matching validator
// before any use, and kernel errnos must pass validateErrno.
func TestIagoFlowAnalyzer(t *testing.T) {
	runWantTest(t, IagoFlowAnalyzer,
		"overshadow/internal/shim", "testdata/src/iagoflow")
}
