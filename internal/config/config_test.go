package config

import (
	"strings"
	"testing"
	"time"

	"adaptbf/internal/sim"
)

const sample = `{
  "policy": "adaptbf",
  "maxTokenRate": 500,
  "periodMs": 100,
  "osts": 2,
  "durationSec": 60.5,
  "jobs": [
    {"id": "ior.n01", "nodes": 4, "procs": [
      {"fileMiB": 1024, "count": 16}
    ]},
    {"id": "fb.n02", "nodes": 1, "procs": [
      {"fileMiB": 512, "burstRPCs": 64, "burstIntervalSec": 5, "count": 2},
      {"fileMiB": 512, "startDelaySec": 20}
    ]}
  ]
}`

func TestParseFullScenario(t *testing.T) {
	cfg, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != sim.AdapTBF {
		t.Errorf("policy = %v", cfg.Policy)
	}
	if cfg.MaxTokenRate != 500 || cfg.Period != 100*time.Millisecond || cfg.OSTs != 2 {
		t.Errorf("knobs: rate=%v period=%v osts=%d", cfg.MaxTokenRate, cfg.Period, cfg.OSTs)
	}
	if cfg.Duration != 60500*time.Millisecond {
		t.Errorf("duration = %v", cfg.Duration)
	}
	if len(cfg.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(cfg.Jobs))
	}
	if len(cfg.Jobs[0].Procs) != 16 {
		t.Errorf("ior procs = %d, want 16 (count replication)", len(cfg.Jobs[0].Procs))
	}
	fb := cfg.Jobs[1]
	if len(fb.Procs) != 3 {
		t.Fatalf("fb procs = %d, want 3", len(fb.Procs))
	}
	if fb.Procs[0].BurstRPCs != 64 || fb.Procs[0].BurstInterval != 5*time.Second {
		t.Errorf("burst pattern: %+v", fb.Procs[0])
	}
	if fb.Procs[2].StartDelay != 20*time.Second {
		t.Errorf("delayed pattern: %+v", fb.Procs[2])
	}
	if fb.Procs[0].FileBytes != 512<<20 {
		t.Errorf("fileMiB conversion: %d", fb.Procs[0].FileBytes)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"policy": "nobw", "typoKnob": 1, "jobs": [{"id":"a.b","nodes":1,"procs":[{"fileMiB":1}]}]}`))
	if err == nil || !strings.Contains(err.Error(), "typoKnob") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestParseRejectsBadScenarios(t *testing.T) {
	bad := []string{
		`not json`,
		`{"policy": "warp", "jobs": [{"id":"a.b","nodes":1,"procs":[{"fileMiB":1}]}]}`,
		`{"jobs": []}`,
		`{"jobs": [{"id":"a.b","nodes":1,"procs":[]}]}`,
		`{"jobs": [{"id":"","nodes":1,"procs":[{"fileMiB":1}]}]}`,
		`{"jobs": [{"id":"a.b","nodes":0,"procs":[{"fileMiB":1}]}]}`,
		`{"jobs": [{"id":"a.b","nodes":1,"procs":[{"fileMiB":1,"count":-2}]}]}`,
		`{"jobs": [{"id":"a.b","nodes":1,"procs":[{"fileMiB":1,"burstRPCs":5}]}]}`,
	}
	for i, in := range bad {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestParsedScenarioRuns(t *testing.T) {
	cfg, err := Parse([]byte(`{
	  "policy": "static",
	  "jobs": [{"id": "t.n1", "nodes": 1, "procs": [{"fileMiB": 8, "count": 2}]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("parsed scenario did not complete")
	}
}

func TestDemo(t *testing.T) {
	for _, pol := range []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ} {
		cfg := Demo(pol)
		if cfg.Policy != pol || len(cfg.Jobs) != 2 {
			t.Errorf("Demo(%v) = %+v", pol, cfg)
		}
	}
}
