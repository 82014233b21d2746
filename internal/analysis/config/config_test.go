package config_test

import (
	"testing"

	"matscale/internal/analysis/config"
)

func TestClassification(t *testing.T) {
	cases := []struct {
		path                                                              string
		deterministic, charged, clockOwner, costDoc, ownership, unitInfer bool
	}{
		{"matscale/internal/simulator", true, false, true, false, false, false},
		{"matscale/internal/machine", true, false, true, true, false, true},
		{"matscale/internal/faults", true, false, false, false, false, false},
		{"matscale/internal/core", true, true, false, false, true, false},
		{"matscale/internal/collective", true, true, false, false, true, false},
		{"matscale/internal/experiments", true, false, false, false, false, false},
		{"matscale/internal/sweep", true, false, false, false, false, false},
		{"matscale/internal/server", true, false, false, false, false, false},
		{"matscale/internal/model", false, false, false, true, false, true},
		{"matscale/internal/iso", false, false, false, true, false, true},
		{"matscale/internal/regions", false, false, false, false, false, true},
		{"matscale", false, false, false, false, false, false},
		{"matscale/cmd/matscale", false, false, false, false, false, false},
		// cmd/ binaries are never in analyzer scope, even when their
		// names echo classified packages.
		{"matscale/cmd/matscale-server", false, false, false, false, false, false},
		{"matscale/cmd/matscale-vet", false, false, false, false, false, false},
		// External test variants and synthesized test mains classify
		// like their base package.
		{"matscale/internal/simulator_test", true, false, true, false, false, false},
		{"matscale/internal/core_test", true, true, false, false, true, false},
		{"matscale/internal/model_test", false, false, false, true, false, true},
		{"matscale/internal/core.test", true, true, false, false, true, false},
		// Vendored code is outside every contract, wherever it sits.
		{"vendor/golang.org/x/tools/go/analysis", false, false, false, false, false, false},
		{"matscale/vendor/matscale/internal/core", false, false, false, false, false, false},
	}
	for _, c := range cases {
		if got := config.Deterministic(c.path); got != c.deterministic {
			t.Errorf("Deterministic(%q) = %v, want %v", c.path, got, c.deterministic)
		}
		// The host-kernel exemption and the charging contract are
		// mutually exclusive: a package cannot both run uncharged host
		// parallelism and be bound to the ts + tw·m model.
		if config.HostKernel(c.path) && c.charged {
			t.Errorf("HostKernel(%q) and Charged(%q) are both true", c.path, c.path)
		}
		if got := config.Charged(c.path); got != c.charged {
			t.Errorf("Charged(%q) = %v, want %v", c.path, got, c.charged)
		}
		if got := config.ClockOwner(c.path); got != c.clockOwner {
			t.Errorf("ClockOwner(%q) = %v, want %v", c.path, got, c.clockOwner)
		}
		if got := config.CostDoc(c.path); got != c.costDoc {
			t.Errorf("CostDoc(%q) = %v, want %v", c.path, got, c.costDoc)
		}
		if got := config.Ownership(c.path); got != c.ownership {
			t.Errorf("Ownership(%q) = %v, want %v", c.path, got, c.ownership)
		}
		if got := config.UnitInference(c.path); got != c.unitInfer {
			t.Errorf("UnitInference(%q) = %v, want %v", c.path, got, c.unitInfer)
		}
	}
}

// TestHostKernel pins the documented cost-charging exemption: the host
// matmul kernel runs real parallelism outside the simulator, while
// formulation packages must never inherit it.
func TestHostKernel(t *testing.T) {
	for _, path := range []string{
		"matscale/internal/matrix",
		"matscale/internal/matrix_test", // test variants classify like the base
		"matscale/internal/matrix.test",
	} {
		if !config.HostKernel(path) {
			t.Errorf("HostKernel(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"matscale/internal/core",
		"matscale/internal/collective",
		"matscale/internal/simulator",
		"matscale",
		"matscale/vendor/matscale/internal/matrix", // vendored code is outside every table
	} {
		if config.HostKernel(path) {
			t.Errorf("HostKernel(%q) = true, want false", path)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"matscale/internal/core", "matscale/internal/core"},
		{"matscale/internal/core_test", "matscale/internal/core"},
		{"matscale/internal/core.test", "matscale/internal/core"},
		{"vendor/golang.org/x/tools/go/cfg", ""},
		{"matscale/vendor/golang.org/x/tools/go/cfg", ""},
		// A path that merely names a vendor-ish package is untouched.
		{"matscale/internal/vendorparse", "matscale/internal/vendorparse"},
		{"", ""},
	}
	for _, c := range cases {
		if got := config.Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGuardedFields(t *testing.T) {
	for _, f := range []string{"Ts", "Tw", "Th", "Routing", "AllPort"} {
		if !config.GuardedMachineField(f) {
			t.Errorf("GuardedMachineField(%q) = false, want true", f)
		}
	}
	// Observability flags are configuration, not cost constants.
	for _, f := range []string{"TrackContention", "CollectMetrics", "CollectTrace", "Faults", "Topo"} {
		if config.GuardedMachineField(f) {
			t.Errorf("GuardedMachineField(%q) = true, want false", f)
		}
	}
	for _, typ := range []string{"Result", "Metrics", "RankMetrics", "LinkMetrics", "Degradation", "Trace", "Event"} {
		if !config.GuardedSimulatorType(typ) {
			t.Errorf("GuardedSimulatorType(%q) = false, want true", typ)
		}
	}
	if config.GuardedSimulatorType("Proc") {
		t.Error("Proc is goroutine-owned, not a guarded result carrier")
	}
}

func TestUnitDocPattern(t *testing.T) {
	match := []string{
		"returns the parallel execution time in flop units",
		"critical-path cost: log2(g) · (ts + tw·m)",
		"the efficiency E = W/(p·Tp)",
		"words moved per processor",
	}
	for _, s := range match {
		if !config.UnitDocPattern.MatchString(s) {
			t.Errorf("UnitDocPattern should match %q", s)
		}
	}
	nomatch := []string{
		"produces a handy number for callers",
		"does the thing",
		"its network switch", // "ts"/"tw" must match as whole words only
	}
	for _, s := range nomatch {
		if config.UnitDocPattern.MatchString(s) {
			t.Errorf("UnitDocPattern should not match %q", s)
		}
	}
}
