package harness

import (
	"fmt"
	"sort"
	"time"

	"adaptbf/internal/workgen"
	"adaptbf/internal/workload"
)

// The builtin scenarios scale the paper's 1 GiB-per-process volumes the
// same way package experiments does. Seed-keyed draws come from
// workload.RNG (the splitmix64 stream the golden fingerprint pins);
// jitterStarts and scaledBytes are thin aliases kept for the scenario
// bodies' readability.
const (
	mib = workload.MiB
	gib = workload.GiB
)

func scaledBytes(bytes, scale int64) int64 { return workload.ScaledBytes(bytes, scale) }

func jitterStarts(jobs []workload.Job, seed int64, spread time.Duration) []workload.Job {
	return workload.JitterStarts(jobs, seed, spread)
}

// StripedSequentialScenario models the paper's real deployment shape:
// three jobs with a 1:3:6 priority ratio whose files are striped across
// the cell's OSSes at different widths — narrow (1), medium (half), and
// full — so per-OSS controllers see overlapping but distinct job mixes.
func StripedSequentialScenario() Scenario {
	return Scenario{
		Name: "striped-seq",
		Jobs: func(p CellParams) []workload.Job {
			fb := scaledBytes(1*gib, p.Scale)
			half := p.OSSes / 2
			if half < 1 {
				half = 1
			}
			jobs := []workload.Job{
				workload.StripedSequential("narrow.n01", 1, 4, fb, 1),
				workload.StripedSequential("medium.n03", 3, 4, fb, half),
				workload.StripedSequential("wide.n06", 6, 4, fb, 0), // full width
			}
			return jitterStarts(jobs, p.Seed, 200*time.Millisecond)
		},
	}
}

// MixedReadWriteScenario stresses opcode interference: a read-heavy
// analysis job against a write-heavy producer, plus a small mixed job,
// all striped full-width.
func MixedReadWriteScenario() Scenario {
	return Scenario{
		Name: "mixed-rw",
		Jobs: func(p CellParams) []workload.Job {
			fb := scaledBytes(1*gib, p.Scale)
			jobs := []workload.Job{
				workload.MixedReadWrite("readers.n04", 4, 6, 0, fb),
				workload.MixedReadWrite("writers.n04", 4, 0, 6, fb),
				workload.MixedReadWrite("mixed.n02", 2, 2, 2, fb),
			}
			return jitterStarts(jobs, p.Seed, 150*time.Millisecond)
		},
	}
}

// StaggeredBurstScenario is the fan-in wave: a high-priority job whose
// burst processes arrive staggered (the stagger drawn from the seed)
// against a low-priority continuous hog — redistribution and
// re-compensation both fire on every arrival.
func StaggeredBurstScenario() Scenario {
	return Scenario{
		Name: "staggered-burst",
		Jobs: func(p CellParams) []workload.Job {
			fb := scaledBytes(1*gib, p.Scale)
			r := workload.NewRNG(p.Seed)
			stagger := r.Dur(300*time.Millisecond, 900*time.Millisecond)
			interval := r.Dur(1500*time.Millisecond, 2500*time.Millisecond)
			return []workload.Job{
				workload.StaggeredBurst("wave.n06", 6, 4, fb, 32, interval, stagger),
				workload.Continuous("hog.n02", 2, 8, fb),
			}
		},
	}
}

// SaturationRampScenario is the overload workload behind the
// capacity-at-SLO study: here — unlike every volume-divisor scenario —
// Scale is an offered-load MULTIPLIER. Each step up adds concurrent
// processes to both jobs while the per-process volume stays fixed, so
// sweeping the scale axis walks the cell from comfortable load into
// saturation and the p99-vs-scale curve develops the knee the study
// bisects for. It is deliberately not in BuiltinScenarios: mixing its
// scale semantics into a divisor sweep would be nonsense, and adding it
// to the default library would move the golden fingerprint.
func SaturationRampScenario() Scenario {
	return Scenario{
		Name: "saturation-ramp",
		Jobs: func(p CellParams) []workload.Job {
			k := int(p.Scale)
			if k < 1 {
				k = 1
			}
			jobs := []workload.Job{
				workload.StripedSequential("load.n04", 4, 2*k, 16*mib, 0),
				workload.StripedSequential("bg.n01", 1, k, 16*mib, 1),
			}
			return jitterStarts(jobs, p.Seed, 100*time.Millisecond)
		},
	}
}

// GateContentionScenario is the gate-stress workload behind the
// gate-contention study. Like the saturation ramp — and unlike every
// volume-divisor preset — Scale is not a volume divisor: it is the
// total number of concurrent client processes, spread across four flows
// of unequal priority. Every process issues small (64 KiB) RPCs from an
// unbounded file with a short in-flight window, so the cell runs
// flat-out until the matrix Duration caps it and every served request
// crossed the OSS's request gate while Scale-1 peers were hammering the
// same gate. Small RPCs maximize gate acquisitions per byte; four flows
// give the per-flow scheduler state (token buckets, departure stamps,
// start tags) more than one queue to keep. It lives
// in BuiltinScenarios (selectable via -scenarios) but deliberately not
// in DefaultScenarios: growing that list would move the golden
// fingerprint, and concurrency-scale semantics are nonsense in a volume
// sweep.
func GateContentionScenario() Scenario {
	return Scenario{
		Name: "gate-contention",
		Jobs: func(p CellParams) []workload.Job {
			procs := int(p.Scale)
			if procs < 4 {
				procs = 4
			}
			flows := []struct {
				id    string
				nodes int
			}{
				{"hot.n06", 6},
				{"warm.n03", 3},
				{"cool.n02", 2},
				{"cold.n01", 1},
			}
			per, rem := procs/len(flows), procs%len(flows)
			jobs := make([]workload.Job, 0, len(flows))
			for i, f := range flows {
				n := per
				if i < rem {
					n++
				}
				jobs = append(jobs, workload.Job{
					ID:    f.id,
					Nodes: f.nodes,
					Procs: workload.Replicate(workload.Pattern{RPCBytes: 64 << 10, MaxInflight: 2}, n),
				})
			}
			return jitterStarts(jobs, p.Seed, 20*time.Millisecond)
		},
	}
}

// ---- generative (streaming) scenarios ----

// specScenario wraps a workgen spec as a Scenario. Materialized specs
// (Jobs mode) become ordinary Jobs scenarios; stream specs become
// generator-backed scenarios whose cells pull jobs lazily. Purity of
// Jobs(CellParams) generalizes: the generator is keyed only to the
// cell's scale and seed, so the same cell yields the identical stream
// whatever worker ran it.
func specScenario(spec *workgen.Spec) Scenario {
	sc := Scenario{Name: spec.Name, Source: &WorkloadSource{Kind: "spec", Name: spec.Name, SHA: spec.SHA()}}
	if spec.Stream != nil {
		sc.Stream = func(p CellParams) (workgen.Stream, error) {
			return workgen.NewGenerator(spec, p.Scale, p.Seed)
		}
		return sc
	}
	sc.Jobs = func(p CellParams) []workload.Job {
		jobs, err := spec.Materialize(p.Scale, p.OSSes, p.Seed)
		if err != nil {
			// Specs are validated at load/registration time, so a
			// materialization failure is a programming error, and Jobs
			// has no error channel by contract (pure function).
			panic(fmt.Sprintf("harness: spec %s failed to materialize: %v", spec.Name, err))
		}
		return jobs
	}
	return sc
}

// ScenarioFromSpec registers a parsed workload spec as a scenario
// (validated first). Materialized specs run on every backend; stream
// specs run on the sim backend only.
func ScenarioFromSpec(spec *workgen.Spec) (Scenario, error) {
	if err := spec.Validate(); err != nil {
		return Scenario{}, err
	}
	return specScenario(spec), nil
}

// LoadScenarioSpec reads a workload spec file (see package workgen for
// the format) and wraps it as a Scenario named by the spec.
func LoadScenarioSpec(path string) (Scenario, error) {
	spec, err := workgen.LoadSpec(path)
	if err != nil {
		return Scenario{}, err
	}
	sc := specScenario(spec)
	sc.Source.Path = path
	return sc, nil
}

// PoissonMixScenario is the baseline generative scenario: a Poisson
// arrival stream over a small skewed multi-tenant population with
// lognormal transfer sizes and a 30% read mix. Scale divides the
// stream's job count the way it divides a preset's volumes.
func PoissonMixScenario() Scenario {
	return specScenario(workgen.PoissonMixSpec())
}

// GammaBurstScenario clumps arrivals: Gamma interarrivals with shape
// k < 1 are heavy at zero, so jobs land in bursts separated by lulls —
// the fan-in shape at stream scale, with Pareto transfer sizes.
func GammaBurstScenario() Scenario {
	return specScenario(workgen.GammaBurstSpec())
}

// DiurnalTenantsScenario modulates a Poisson stream with multi-period
// sinusoids (a short and a long period, out of phase) and churns tenant
// behaviour profiles over time — the day/night shape of shared-storage
// congestion, compressed to simulation seconds.
func DiurnalTenantsScenario() Scenario {
	return specScenario(workgen.DiurnalTenantsSpec())
}

// DefaultScenarios returns the materialized preset trio — the default
// grid of the CLI, the golden fingerprint, and the tracked p99 gate.
// Growing THIS list moves the golden hash; new scenarios belong in
// BuiltinScenarios.
func DefaultScenarios() []Scenario {
	return []Scenario{
		StripedSequentialScenario(),
		MixedReadWriteScenario(),
		StaggeredBurstScenario(),
	}
}

// BuiltinScenarios returns the scenario library in canonical order: the
// preset trio first (the default grid), then the generative streaming
// scenarios (sim-backend only; selectable via -scenarios).
func BuiltinScenarios() []Scenario {
	return append(DefaultScenarios(),
		PoissonMixScenario(),
		GammaBurstScenario(),
		DiurnalTenantsScenario(),
		GateContentionScenario(),
	)
}

// ScenarioNames lists the builtin scenario names, sorted.
func ScenarioNames() []string {
	scs := BuiltinScenarios()
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.Name
	}
	sort.Strings(out)
	return out
}

// ScenariosByName resolves names against the builtin library, in the
// order given.
func ScenariosByName(names []string) ([]Scenario, error) {
	byName := make(map[string]Scenario)
	for _, sc := range BuiltinScenarios() {
		byName[sc.Name] = sc
	}
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		sc, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("harness: unknown scenario %q (have %v)", n, ScenarioNames())
		}
		out = append(out, sc)
	}
	return out, nil
}
