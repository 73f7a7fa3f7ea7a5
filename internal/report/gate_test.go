package report

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptbf/internal/harness"
	"adaptbf/internal/sim"
)

func gateMatrixResult(t *testing.T) *harness.MatrixResult {
	t.Helper()
	res, err := harness.Run(context.Background(), harness.Matrix{
		Scenarios: []harness.Scenario{harness.StripedSequentialScenario()},
		Policies:  []sim.Policy{sim.NoBW, sim.AdapTBF},
		Scales:    []int64{512},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPolicyP99sAndCheckGate(t *testing.T) {
	res := gateMatrixResult(t)
	pols, p99s := PolicyP99s(res)
	if len(pols) != 2 {
		t.Fatalf("policies = %v, want 2", pols)
	}
	for _, p := range pols {
		if p99s[p] <= 0 {
			t.Fatalf("policy %s p99 = %v", p, p99s[p])
		}
	}
	// The simulator is deterministic, so the measured p99s ARE the
	// tracked values; a ±20% interval around them must pass.
	pass := GateSpec{Policies: map[string]GateInterval{}}
	for p, v := range p99s {
		pass.Policies[p] = GateInterval{P99USMin: v * 0.8, P99USMax: v * 1.2}
	}
	if err := CheckGate(res, pass); err != nil {
		t.Fatalf("in-interval gate failed: %v", err)
	}
	// An interval the measurement cannot reach must fail, naming the
	// policy.
	fail := GateSpec{Policies: map[string]GateInterval{
		sim.AdapTBF.String(): {P99USMin: 1, P99USMax: 2},
	}}
	err := CheckGate(res, fail)
	if err == nil || !strings.Contains(err.Error(), "AdapTBF") {
		t.Fatalf("out-of-interval gate: err = %v", err)
	}
	// A gated policy that did not run must fail loudly, not pass
	// vacuously.
	missing := GateSpec{Policies: map[string]GateInterval{
		sim.GIFT.String(): {P99USMin: 0, P99USMax: 1e12},
	}}
	if err := CheckGate(res, missing); err == nil {
		t.Fatal("gate on an absent policy passed vacuously")
	}
}

func TestLoadGate(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(good, []byte(`{
		"history": [],
		"regression_gate": {
			"grid": "default",
			"policies": {"AdapTBF": {"p99_us_min": 10, "p99_us_max": 20}}
		}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadGate(good)
	if err != nil {
		t.Fatal(err)
	}
	if iv := spec.Policies["AdapTBF"]; iv.P99USMin != 10 || iv.P99USMax != 20 {
		t.Fatalf("loaded interval %+v", iv)
	}
	// A file without the gate section must refuse, not gate nothing.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"history": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGate(empty); err == nil {
		t.Fatal("gateless file accepted")
	}
	if _, err := LoadGate(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckGateThroughput(t *testing.T) {
	spec := GateSpec{GateThroughput: &GateThroughputSpec{
		Gates: map[string]GateThroughputBound{
			"tbf": {OpsPerSec: 1e6},
			"edt": {OpsPerSec: 1e6},
		},
	}}
	// Exactly at the 20% floor passes; anything below it fails, naming
	// the gate.
	floor := 1e6 * (1 - GateThroughputTolerance)
	if err := CheckGateThroughput(spec, map[string]float64{"tbf": floor, "edt": 2e6}); err != nil {
		t.Fatalf("at-floor throughput failed: %v", err)
	}
	err := CheckGateThroughput(spec, map[string]float64{"tbf": floor - 1, "edt": 2e6})
	if err == nil || !strings.Contains(err.Error(), `"tbf"`) {
		t.Fatalf("below-floor gate: err = %v", err)
	}
	// A tracked gate that was not measured must fail loudly, not pass
	// vacuously.
	if err := CheckGateThroughput(spec, map[string]float64{"tbf": 1e6}); err == nil {
		t.Fatal("unmeasured tracked gate passed vacuously")
	}
	// A spec without the section checks nothing.
	if err := CheckGateThroughput(GateSpec{}, nil); err != nil {
		t.Fatalf("sectionless spec: %v", err)
	}
}

// TestGateMatchesTrackedFile: the repository's own BENCH_matrix.json
// gate must pass against a fresh run of the default CLI grid — this is
// the same check CI's gate step performs (its gate-throughput half is
// wall-clock and exercised by the CLI, not here; this test only pins
// that the tracked file carries the section).
func TestGateMatchesTrackedFile(t *testing.T) {
	spec, err := LoadGate(filepath.Join("..", "..", "BENCH_matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.GateThroughput == nil || len(spec.GateThroughput.Gates) != 2 {
		t.Fatalf("tracked gate_throughput section missing or wrong size: %+v", spec.GateThroughput)
	}
	res, err := harness.Run(context.Background(), harness.Matrix{
		Scenarios: harness.DefaultScenarios(),
		Policies:  []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ},
		Scales:    []int64{64},
		OSSes:     []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGate(res, spec); err != nil {
		t.Fatalf("tracked gate failed on the default grid: %v", err)
	}
}
