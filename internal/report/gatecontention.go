package report

import (
	"context"
	"fmt"
	"time"

	"adaptbf/internal/experiments"
	"adaptbf/internal/harness"
	"adaptbf/internal/obs"
	"adaptbf/internal/sim"
	"adaptbf/internal/stats"
)

// GateContentionStudyName is the Study kind of the built-in
// gate-contention study, and the value the CLI's -study flag accepts.
const GateContentionStudyName = "gate-contention"

// A GateContentionPoint is one (gate, concurrency) grid point folded
// over the seed axis. Latency statistics cover served RPCs; the
// lock-wait statistics come from the gate_lock_wait_ns histogram every
// gate observes at the same gate-lock seam, so the numbers are
// comparable across gates by construction.
type GateContentionPoint struct {
	Concurrency int64 `json:"concurrency"`
	N           int64 `json:"n"` // completed seeds

	P99USMean float64 `json:"p99_us_mean"`
	P99USCI   float64 `json:"p99_us_ci"`
	MiBpsMean float64 `json:"mibps_mean"`
	MiBpsCI   float64 `json:"mibps_ci"`

	// LockWaitP99NsMean is the seed-mean of each cell's p99 time to
	// acquire a gate lock, in nanoseconds (bucketed upper bound).
	LockWaitP99NsMean float64 `json:"lock_wait_p99_ns_mean"`
	LockWaitP99NsCI   float64 `json:"lock_wait_p99_ns_ci"`
	// LockWaitCount totals gate-lock acquisitions across the point's
	// seeds — the histogram's sample count, which a smoke check can
	// assert is nonzero without claiming anything about magnitudes.
	LockWaitCount int64 `json:"lock_wait_count"`
}

// A GateContentionGate is one gate implementation's finished
// concurrency sweep.
type GateContentionGate struct {
	// Gate names the scheduler behind the OSS's gate lock: "tbf"
	// (token buckets), "edt" (earliest-departure-time pacing), or
	// "sfq".
	Gate string `json:"gate"`
	// Policy is the scheduling policy that exercises the gate
	// (StaticBW for tbf, so bucket state is actually hit).
	Policy string `json:"policy"`

	Points []GateContentionPoint `json:"points"`
}

// A GateContention is the gate-contention section of a schema-v9
// document: per gate implementation, how p99 latency, served
// throughput, and gate-lock wait respond to runner concurrency.
type GateContention struct {
	Name          string  `json:"name"`
	Description   string  `json:"description"`
	Scenario      string  `json:"scenario"`
	Concurrencies []int64 `json:"concurrencies"`
	Seeds         []int64 `json:"seeds"`
	OSSes         int     `json:"osses"`
	DurationS     float64 `json:"duration_s"`

	Gates []GateContentionGate `json:"gates"`
}

// GateContentionStudyOptions parameterizes RunGateContentionStudy. The
// zero value sweeps runner concurrency {4, 16, 32} over seeds {1, 2, 3}
// on one OSS, 2 OSS-seconds per cell, comparing the TBF, EDT, and SFQ
// gates.
type GateContentionStudyOptions struct {
	// Concurrencies is the runner-concurrency axis (the scenario's
	// Scale: total concurrent client processes). Default {4, 16, 32}.
	Concurrencies []int64
	Seeds         []int64 // default {1, 2, 3}
	OSSes         int     // default 1
	// Duration caps each cell in OSS time. Live cells run on the wall
	// clock, so keep this small; default 2 s.
	Duration time.Duration
	// Speedup accelerates the live cells' device clocks
	// (harness.ClusterBackend.Speedup). Default 1: lock contention is a
	// wall-clock phenomenon, and accelerating the device only moves the
	// bottleneck away from the gate under study.
	Speedup float64
	// CellTimeout bounds each live cell's wall-clock run. Default 2 min.
	CellTimeout time.Duration

	Workers int
	CILevel float64 // default harness.DefaultCILevel
	// OnCell observes every finished cell.
	OnCell func(harness.CellResult)
}

func (o GateContentionStudyOptions) normalize() GateContentionStudyOptions {
	if len(o.Concurrencies) == 0 {
		o.Concurrencies = []int64{4, 16, 32}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if o.OSSes < 1 {
		o.OSSes = 1
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Speedup <= 0 {
		o.Speedup = 1
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 2 * time.Minute
	}
	if o.CILevel <= 0 || o.CILevel >= 1 {
		o.CILevel = harness.DefaultCILevel
	}
	return o
}

// A GateContentionStudy is a finished gate-contention sweep: the
// schema-v9 document (GateContention section filled) and the
// renderable/CSV-exportable report.
type GateContentionStudy struct {
	Document *Document
	Report   *experiments.Report
}

// gateVariant is one gate under study and the scheduling policy that
// exercises it.
type gateVariant struct {
	name   string
	policy sim.Policy
}

// RunGateContentionStudy sweeps runner concurrency against the three
// gate schedulers on the live in-process backend and reports, per
// (gate, concurrency) point, seed-axis p99 latency, served throughput,
// and the p99 of gate_lock_wait_ns — the time runners spend waiting to
// acquire the gate lock, observed identically for every gate at the
// same seam. Each arm measures a gate under its own policy: the arms
// differ in scheduler and in the traffic their policy admits, so a gap
// between them is not a property of the lock alone. Live cells are
// wall-clock: the numbers are measured, never deterministic.
func RunGateContentionStudy(opt GateContentionStudyOptions) (*GateContentionStudy, error) {
	opt = opt.normalize()

	// StaticBW for tbf so rule-matched bucket state is on the hot path
	// of every request (NoBW would bypass the buckets).
	variants := []gateVariant{
		{"tbf", sim.StaticBW},
		{"edt", sim.EDT},
		{"sfq", sim.SFQ},
	}

	gc := &GateContention{
		Name: GateContentionStudyName,
		Description: "Gate-contention sweep on the live backend: runner concurrency (the " +
			"gate-contention scenario's Scale — total concurrent client processes) against three " +
			"request gates, each one scheduler behind the OSS's gate lock. lock_wait_p99_ns_* folds " +
			"each cell's gate_lock_wait_ns histogram p99 over the seed axis; every gate observes " +
			"that histogram at the same seam, one sample per lock acquisition. Each arm measures a " +
			"gate under its own policy (tbf under StaticBW rules, edt under per-flow departure " +
			"stamps, sfq under start-tag fair queueing), so arms differ in scheduler and in the " +
			"traffic their policy lets through, not in locking alone. Live cells are wall-clock " +
			"and excluded from determinism claims.",
		Scenario:      "gate-contention",
		Concurrencies: opt.Concurrencies,
		Seeds:         opt.Seeds,
		OSSes:         opt.OSSes,
		DurationS:     opt.Duration.Seconds(),
	}

	table := experiments.Table{
		Name: "gate-contention",
		Header: []string{"gate", "policy", "conc", "n",
			"p99 (µs)", "±CI", "MiB/s", "±CI", "lock p99 (ns)", "±CI", "acquisitions"},
	}

	for _, v := range variants {
		g, err := runGateSweep(v, opt)
		if err != nil {
			return nil, err
		}
		gc.Gates = append(gc.Gates, g)
		for _, p := range g.Points {
			table.Rows = append(table.Rows, []string{
				g.Gate, g.Policy,
				fmt.Sprintf("%d", p.Concurrency), fmt.Sprintf("%d", p.N),
				fmt.Sprintf("%.1f", p.P99USMean), fmt.Sprintf("%.1f", p.P99USCI),
				fmt.Sprintf("%.1f", p.MiBpsMean), fmt.Sprintf("%.1f", p.MiBpsCI),
				fmt.Sprintf("%.0f", p.LockWaitP99NsMean), fmt.Sprintf("%.0f", p.LockWaitP99NsCI),
				fmt.Sprintf("%d", p.LockWaitCount),
			})
		}
	}

	doc := &Document{
		SchemaVersion:  SchemaVersion,
		Generator:      "adaptbf",
		Kind:           GateContentionStudyName,
		Title:          "Gate-contention study (lock wait vs runner concurrency)",
		CILevel:        opt.CILevel,
		Workers:        opt.Workers,
		GateContention: gc,
	}
	rep := &experiments.Report{
		ID:     GateContentionStudyName,
		Title:  doc.Title,
		Tables: []experiments.Table{table},
	}
	return &GateContentionStudy{Document: doc, Report: rep}, nil
}

// runGateSweep runs one gate variant's full concurrency × seed grid on
// the live backend and folds each concurrency point over the seed axis.
func runGateSweep(v gateVariant, opt GateContentionStudyOptions) (GateContentionGate, error) {
	g := GateContentionGate{Gate: v.name, Policy: v.policy.String()}
	m := harness.Matrix{
		Scenarios: []harness.Scenario{harness.GateContentionScenario()},
		Policies:  []sim.Policy{v.policy},
		Scales:    opt.Concurrencies,
		OSSes:     []int{opt.OSSes},
		Seeds:     opt.Seeds,
		Duration:  opt.Duration,
	}
	res, err := harness.Run(context.Background(), m,
		harness.WithWorkers(opt.Workers), harness.WithProgress(opt.OnCell),
		harness.WithObs(), harness.WithCellTimeout(opt.CellTimeout),
		harness.WithBackend(&harness.ClusterBackend{Speedup: opt.Speedup}))
	if res == nil {
		return g, fmt.Errorf("gate-contention: gate %s: %w", v.name, err)
	}
	sums := res.Summaries()

	type fold struct {
		p99, mibps, lockP99 stats.Moments
		acquisitions        int64
	}
	folds := make(map[int64]*fold, len(opt.Concurrencies))
	for i, cr := range res.Cells {
		if cr.Err != nil {
			continue
		}
		f := folds[cr.Cell.Scale]
		if f == nil {
			f = &fold{}
			folds[cr.Cell.Scale] = f
		}
		if d := cr.LatencyDigest; d != nil && d.N() > 0 {
			f.p99.Add(float64(d.Quantile(99).Nanoseconds()) / 1e3)
		}
		f.mibps.Add(sums[i].OverallMiBps)
		if cr.Obs != nil {
			h := cr.Obs.Histograms[obs.HistGateLockWait]
			f.lockP99.Add(float64(h.Quantile(0.99)))
			f.acquisitions += h.Count
		}
	}
	for _, c := range opt.Concurrencies {
		f := folds[c]
		if f == nil || f.p99.N() == 0 {
			return g, fmt.Errorf("gate-contention: gate %s concurrency %d produced no latency samples (%v)", v.name, c, err)
		}
		g.Points = append(g.Points, GateContentionPoint{
			Concurrency:       c,
			N:                 f.p99.N(),
			P99USMean:         f.p99.Mean(),
			P99USCI:           f.p99.CIHalfWidth(opt.CILevel),
			MiBpsMean:         f.mibps.Mean(),
			MiBpsCI:           f.mibps.CIHalfWidth(opt.CILevel),
			LockWaitP99NsMean: f.lockP99.Mean(),
			LockWaitP99NsCI:   f.lockP99.CIHalfWidth(opt.CILevel),
			LockWaitCount:     f.acquisitions,
		})
	}
	return g, nil
}
