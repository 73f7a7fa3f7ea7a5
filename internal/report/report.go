// Package report turns merged matrix results into versioned
// machine-readable artifacts — a JSON document carrying the grid axes,
// per-cell summaries with latency digests, and per-group policy means
// with Student-t confidence intervals — and hosts the built-in studies
// (GIFTScaleStudy) that package the paper-level comparisons as one
// callable unit. CSV export reuses experiments.Report.WriteCSVs, so every
// table a study renders is also a file a plotting script can load.
//
// The JSON schema is versioned by SchemaVersion; consumers should refuse
// documents with a version they do not know. The document is a pure
// function of the MatrixResult (plus options), so two runs of the same
// matrix marshal byte-identical documents apart from wall-clock-derived
// overhead fields, which are reporting-only by contract.
package report

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"adaptbf/internal/harness"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/sim"
	"adaptbf/internal/stats"
)

// SchemaVersion is the version stamped into every Document. Bump it
// whenever a field changes meaning or shape, and say why in ROADMAP.md.
//
// v2 (backend-agnostic execution): each cell carries the backend that
// ran it ("sim" or "live" — live cells are wall-clock and excluded from
// determinism claims) and, when captured and requested, per-job latency
// digests under per_job_digests. v1 documents predate both fields.
//
// v3 (live-vs-sim calibration): calibration-study documents carry a
// "calibration" section — per-policy per-metric sim-vs-live divergence
// rows with paired confidence intervals and outlier flags, plus the
// live grid's cells under live_cells. Plain matrix documents are
// unchanged apart from the version stamp.
//
// v4 (remote backend & fault axis): cells may carry backend "remote"
// (every OSS its own OS process over TCP); calibration rows grow an
// optional third column — remote_mean/remote_ci and the cell-paired
// (remote−sim)/sim divergence under remote_divergence_pct_* — with the
// remote grid's cells under remote_cells and the injected fault profile
// under faults. Plain matrix documents are unchanged apart from the
// version stamp.
//
// v5 (admission control & saturation): faults is a first-class matrix
// axis — the grid carries the swept profiles and each cell its own point
// on the axis — and every cell that reports latency also reports the
// goodput side of the story: rejected_rpcs/shed_rpcs counts and
// goodput_pct (served bytes over offered bytes), with matching
// mean_goodput_pct/ci_goodput_pct on policy means. The grid records the
// installed admission policy; cells with per-job digests additionally
// carry a starvation section (tail-of-tails over per-job p99s).
// Saturation-study documents (kind "saturation") carry the per-policy
// capacity-at-SLO bisection under saturation.
//
// v6 (observability): cells from runs with the obs layer enabled
// (harness.WithObs) carry an "obs" section — the cell's metrics
// snapshot: counters (request outcomes, controller epochs, transport
// retries/redials), gauges (borrowed tokens, bucket levels, queue
// depth), and histograms (gate lock wait) as count/sum/max. The section
// is reporting-only and never part of the fingerprint; documents from
// runs without WithObs are unchanged apart from the version stamp.
//
// v7 (generative workloads & trace replay): cells whose workload was
// generative (a streaming workgen scenario), declaratively sourced (a
// workload spec file), or recorded to a trace carry a "workload"
// section — the mode ("jobs" or "stream"), the spec/trace provenance
// (name, canonical SHA-256, path), the completed stream-job count, and
// the recorded trace path. Cells from plain Go-preset materialized
// scenarios are unchanged apart from the version stamp.
//
// v8 (gate-contention study): histogram snapshots under obs carry their
// power-of-two bucket counts (buckets) beside count/sum/max, so
// documents hold full wait-time distributions, not just totals.
// Gate-contention-study documents (kind "gate-contention") carry the
// per-gate concurrency sweep under gate_contention: for each gate
// implementation and each runner-concurrency point, seed-axis p99
// latency, served throughput, and the gate_lock_wait_ns p99 measured
// at the shared gate-lock seam. Plain matrix documents are unchanged
// apart from the version stamp and the histogram buckets.
//
// v9 (one gate per policy): each gate_contention.gates[] entry loses
// its lock-stripe count field, with the lock-striped gates it counted;
// the study's arms are tbf (StaticBW), edt and sfq. Nothing else
// changed.
const SchemaVersion = 9

// A Document is the machine-readable form of a merged matrix run.
type Document struct {
	SchemaVersion int     `json:"schema_version"`
	Generator     string  `json:"generator"`
	Kind          string  `json:"kind"` // "matrix" or a study name
	Title         string  `json:"title"`
	CILevel       float64 `json:"ci_level"`
	Workers       int     `json:"workers"`
	Fingerprint   string  `json:"fingerprint"`

	Grid           Grid            `json:"grid"`
	Cells          []Cell          `json:"cells"`
	PolicyMeans    []PolicyMean    `json:"policy_means"`
	Study          *Study          `json:"study,omitempty"`
	Calibration    *Calibration    `json:"calibration,omitempty"`
	Saturation     *Saturation     `json:"saturation,omitempty"`
	GateContention *GateContention `json:"gate_contention,omitempty"`
}

// Grid records the swept axes in canonical order, recovered from the
// cells themselves so the document is self-describing.
type Grid struct {
	Scenarios []string `json:"scenarios"`
	Policies  []string `json:"policies"`
	Scales    []int64  `json:"scales"`
	OSSes     []int    `json:"osses"`
	Seeds     []int64  `json:"seeds"`
	// Faults lists the swept fault profiles (harness.FaultProfile
	// syntax) when any cell ran faulted; absent on all-clean grids.
	Faults []string `json:"faults,omitempty"`
	// Admission is the admission policy installed in front of every OSS
	// (admission.Config syntax); absent under always-admit.
	Admission string `json:"admission,omitempty"`
}

// A Cell is one matrix point's summary. Backend names the substrate
// that executed the cell ("sim" for the deterministic simulator, "live"
// for wall-clock cluster cells — live metrics are measured, not
// simulated, and are excluded from determinism claims).
type Cell struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Scale    int64  `json:"scale"`
	OSSes    int    `json:"osses"`
	Seed     int64  `json:"seed"`
	Backend  string `json:"backend,omitempty"`
	Error    string `json:"error,omitempty"`

	// Faults is the cell's point on the fault axis (harness.FaultProfile
	// syntax); absent on fault-free cells.
	Faults string `json:"faults,omitempty"`

	Done            bool    `json:"done,omitempty"`
	OverallMiBps    float64 `json:"overall_mibps,omitempty"`
	MakespanS       float64 `json:"makespan_s,omitempty"`
	ServedRPCs      uint64  `json:"served_rpcs,omitempty"`
	UtilizationMean float64 `json:"utilization_mean,omitempty"`

	// Admission outcomes: RPCs refused on arrival, RPCs shed past their
	// queueing deadline, and goodput (served bytes over offered bytes,
	// percent — 100 when admission never fired). Latency numbers below
	// cover served RPCs only, so these fields are the mandatory other
	// half of any latency claim.
	RejectedRPCs uint64  `json:"rejected_rpcs,omitempty"`
	ShedRPCs     uint64  `json:"shed_rpcs,omitempty"`
	GoodputPct   float64 `json:"goodput_pct,omitempty"`

	// Obs is the cell's metrics snapshot, present only when the run
	// enabled the observability layer (harness.WithObs). Counters agree
	// with the result fields above by construction; the control-plane
	// gauges and the lock-wait histogram exist nowhere else.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// Workload is the cell's workload provenance — present when the
	// workload was generative, spec-sourced, or recorded to a trace.
	Workload *Workload `json:"workload,omitempty"`

	Latency *Latency `json:"latency,omitempty"`
	// PerJobDigests holds each job's own latency summary, present only
	// when the run captured per-job digests (harness.WithDigests) and
	// Options.PerJobDigests asked for them — the starvation-tail view.
	PerJobDigests map[string]*Latency `json:"per_job_digests,omitempty"`
	// Starvation condenses the per-job digests into the tail-of-tails:
	// present whenever the run captured per-job digests for 2+ jobs.
	Starvation *Starvation `json:"starvation,omitempty"`
}

// Workload records where a cell's workload came from and how it ran:
// materialized up front ("jobs") or pulled lazily from a generator or a
// replayed trace ("stream"). Spec-backed scenarios pin the spec's name
// and canonical SHA-256, so a document identifies the exact workload
// definition; recorded cells name the trace that replays them.
type Workload struct {
	Mode       string `json:"mode"`
	SourceKind string `json:"source,omitempty"`
	SpecName   string `json:"spec_name,omitempty"`
	SpecSHA    string `json:"spec_sha256,omitempty"`
	SourcePath string `json:"source_path,omitempty"`
	StreamJobs int64  `json:"stream_jobs,omitempty"`
	TracePath  string `json:"trace_path,omitempty"`
}

// Starvation is the tail-of-tails analysis of one cell: the cell-wide
// p99 can look healthy while one job starves, so the distribution OVER
// jobs of each job's own p99 is summarized here. A job counts as
// starved when its p99 exceeds StarvationK times the median job p99.
type Starvation struct {
	Jobs           int     `json:"jobs"`
	MedianJobP99US float64 `json:"median_job_p99_us"`
	P99JobP99US    float64 `json:"p99_job_p99_us"`
	MaxJobP99US    float64 `json:"max_job_p99_us"`
	// StarvationFactor is max over median — 1.0 means perfectly even
	// tails, large values mean one job's tail dwarfs the typical job's.
	StarvationFactor float64 `json:"starvation_factor"`
	StarvedJobs      int     `json:"starved_jobs"`
}

// StarvationK is the starved-job threshold: a job whose p99 exceeds
// K× the median job p99 counts as starved.
const StarvationK = 4.0

// Latency condenses a cell's digest: count, extremes, mean, and
// nearest-rank quantile estimates, all in microseconds. Buckets carries
// the non-empty histogram buckets when Options.IncludeBuckets asks for
// the full distribution.
type Latency struct {
	N       int64           `json:"n"`
	MinUS   float64         `json:"min_us"`
	MeanUS  float64         `json:"mean_us"`
	MaxUS   float64         `json:"max_us"`
	P50US   float64         `json:"p50_us"`
	P90US   float64         `json:"p90_us"`
	P99US   float64         `json:"p99_us"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// A LatencyBucket is one non-empty digest bucket: [LoUS, HiUS) holding
// Count samples.
type LatencyBucket struct {
	LoUS  float64 `json:"lo_us"`
	HiUS  float64 `json:"hi_us"`
	Count int64   `json:"count"`
}

// A PolicyMean is one scenario×policy group's seed-axis statistics. CI
// fields are Student-t half-widths at the document's CILevel; they are 0
// when N < 2 (no interval exists).
type PolicyMean struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	// Faults keys the group alongside scenario and policy: faulted and
	// clean cells never share a mean. Absent for fault-free groups.
	Faults         string   `json:"faults,omitempty"`
	N              int64    `json:"n"`
	MeanMiBps      float64  `json:"mean_mibps"`
	CIMiBps        float64  `json:"ci_mibps"`
	MeanMakespanS  float64  `json:"mean_makespan_s"`
	CIMakespanS    float64  `json:"ci_makespan_s"`
	MeanGoodputPct float64  `json:"mean_goodput_pct"`
	CIGoodputPct   float64  `json:"ci_goodput_pct"`
	VsNoBWPct      *float64 `json:"vs_nobw_pct,omitempty"`
}

// Options tunes document construction.
type Options struct {
	// CILevel is the confidence level for every interval in the
	// document. 0 means harness.DefaultCILevel (0.95).
	CILevel float64
	// Title overrides the default document title.
	Title string
	// IncludeBuckets embeds each cell's full latency histogram (the
	// non-empty buckets) instead of just its quantile summary.
	IncludeBuckets bool
	// PerJobDigests exports each cell's per-job latency digests (when
	// the run captured them via harness.WithDigests) under
	// per_job_digests.
	PerJobDigests bool
	// Admission is stamped into the grid section (admission.Config
	// syntax) so the document records what stood in front of the OSSes.
	// Empty means always-admit and stays absent from the JSON.
	Admission string
}

func (o Options) normalize() Options {
	if o.CILevel <= 0 || o.CILevel >= 1 {
		o.CILevel = harness.DefaultCILevel
	}
	return o
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// FromMatrix builds the Document for a merged matrix run.
func FromMatrix(res *harness.MatrixResult, opt Options) *Document {
	return fromMatrix(res, res.Summaries(), opt)
}

// fromMatrix is FromMatrix over precomputed per-cell summaries, so the
// study path can share one Summaries pass across document, study fold,
// and rendered report.
func fromMatrix(res *harness.MatrixResult, sums []metrics.Summary, opt Options) *Document {
	opt = opt.normalize()
	doc := &Document{
		SchemaVersion: SchemaVersion,
		Generator:     "adaptbf",
		Kind:          "matrix",
		Title:         opt.Title,
		CILevel:       opt.CILevel,
		Workers:       res.Workers,
		Fingerprint:   res.Fingerprint(),
		Grid:          gridOf(res),
		Cells:         make([]Cell, 0, len(res.Cells)),
	}
	doc.Grid.Admission = opt.Admission
	if doc.Title == "" {
		doc.Title = "Scenario matrix"
	}

	for i, cr := range res.Cells {
		doc.Cells = append(doc.Cells, cellOf(cr, sums[i], opt))
	}

	// The same harness fold that feeds the rendered matrix-policy-means
	// table feeds the JSON section, so table and document cannot drift.
	groups := res.PolicyGroups(sums)
	for i := range groups {
		g := &groups[i]
		pm := PolicyMean{
			Scenario:       g.Scenario,
			Policy:         g.Policy.String(),
			N:              g.BW.N(),
			MeanMiBps:      g.BW.Mean(),
			CIMiBps:        g.BW.CIHalfWidth(opt.CILevel),
			MeanMakespanS:  g.Makespan.Mean(),
			CIMakespanS:    g.Makespan.CIHalfWidth(opt.CILevel),
			MeanGoodputPct: g.Goodput.Mean(),
			CIGoodputPct:   g.Goodput.CIHalfWidth(opt.CILevel),
		}
		if !g.Faults.IsZero() {
			pm.Faults = g.Faults.String()
		}
		if base := harness.NoBWBaseline(groups, g.Scenario, g.Faults); base != nil && g.Policy != sim.NoBW && base.BW.Mean() > 0 {
			d := (pm.MeanMiBps - base.BW.Mean()) / base.BW.Mean() * 100
			pm.VsNoBWPct = &d
		}
		doc.PolicyMeans = append(doc.PolicyMeans, pm)
	}
	return doc
}

// cellOf condenses one finished (or failed) matrix cell into its
// document form. Shared by the plain matrix path and the calibration
// study's live-cell export, so the two can never diverge.
func cellOf(cr harness.CellResult, sum metrics.Summary, opt Options) Cell {
	c := Cell{
		Scenario: cr.Cell.Scenario,
		Policy:   cr.Cell.Policy.String(),
		Scale:    cr.Cell.Scale,
		OSSes:    cr.Cell.OSSes,
		Seed:     cr.Cell.Seed,
		Backend:  cr.Backend,
	}
	if !cr.Cell.Faults.IsZero() {
		c.Faults = cr.Cell.Faults.String()
	}
	if cr.Err != nil {
		c.Error = cr.Err.Error()
		return c
	}
	if wl := cr.Workload; wl != nil {
		w := &Workload{Mode: wl.Mode, StreamJobs: wl.StreamJobs, TracePath: wl.TracePath}
		if src := wl.Source; src != nil {
			w.SourceKind = src.Kind
			w.SpecName = src.Name
			w.SpecSHA = src.SHA
			w.SourcePath = src.Path
		}
		c.Workload = w
	}
	c.Done = cr.Result.Done
	c.OverallMiBps = sum.OverallMiBps
	c.MakespanS = cr.Result.Elapsed.Seconds()
	c.ServedRPCs = cr.Result.ServedRPCs
	c.RejectedRPCs = cr.Result.Rejected
	c.ShedRPCs = cr.Result.Shed
	c.GoodputPct = cr.Result.GoodputPct()
	var util float64
	for i := range cr.Result.DeviceBusy {
		util += cr.Result.Utilization(i)
	}
	if n := len(cr.Result.DeviceBusy); n > 0 {
		c.UtilizationMean = util / float64(n)
	}
	if cr.Obs != nil && !cr.Obs.IsZero() {
		c.Obs = cr.Obs
	}
	c.Latency = latencyOf(cr.LatencyDigest, opt.IncludeBuckets)
	if opt.PerJobDigests && len(cr.JobDigests) > 0 {
		c.PerJobDigests = make(map[string]*Latency, len(cr.JobDigests))
		for _, jd := range cr.JobDigests {
			if l := latencyOf(jd.Digest, opt.IncludeBuckets); l != nil {
				c.PerJobDigests[jd.Job] = l
			}
		}
	}
	c.Starvation = starvationOf(cr.JobDigests)
	return c
}

// starvationOf folds per-job digests into the tail-of-tails summary:
// the distribution over jobs of each job's own p99. Needs at least two
// jobs with samples — with one job the median IS the max and the
// section would only restate the cell p99.
func starvationOf(jds []harness.JobDigest) *Starvation {
	var tails []float64
	for _, jd := range jds {
		if jd.Digest != nil && jd.Digest.N() > 0 {
			tails = append(tails, us(jd.Digest.Quantile(99)))
		}
	}
	if len(tails) < 2 {
		return nil
	}
	sort.Float64s(tails)
	// Nearest-rank order statistics over the (small) job population.
	at := func(q float64) float64 {
		i := int(q*float64(len(tails))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(tails) {
			i = len(tails) - 1
		}
		return tails[i]
	}
	s := &Starvation{
		Jobs:           len(tails),
		MedianJobP99US: at(0.50),
		P99JobP99US:    at(0.99),
		MaxJobP99US:    tails[len(tails)-1],
	}
	if s.MedianJobP99US > 0 {
		s.StarvationFactor = s.MaxJobP99US / s.MedianJobP99US
	}
	for _, t := range tails {
		if s.MedianJobP99US > 0 && t > StarvationK*s.MedianJobP99US {
			s.StarvedJobs++
		}
	}
	return s
}

func latencyOf(d *stats.Digest, includeBuckets bool) *Latency {
	if d == nil || d.N() == 0 {
		return nil
	}
	l := &Latency{
		N:      d.N(),
		MinUS:  us(d.Min()),
		MeanUS: us(d.Mean()),
		MaxUS:  us(d.Max()),
		P50US:  us(d.Quantile(50)),
		P90US:  us(d.Quantile(90)),
		P99US:  us(d.Quantile(99)),
	}
	if includeBuckets {
		for _, b := range d.Buckets() {
			l.Buckets = append(l.Buckets, LatencyBucket{LoUS: us(b.Lo), HiUS: us(b.Hi), Count: b.Count})
		}
	}
	return l
}

// gridOf recovers the swept axes from the cells in first-appearance
// (canonical) order.
func gridOf(res *harness.MatrixResult) Grid {
	var g Grid
	seenSc := map[string]bool{}
	seenPol := map[string]bool{}
	seenScale := map[int64]bool{}
	seenOSS := map[int]bool{}
	seenSeed := map[int64]bool{}
	seenFault := map[harness.FaultProfile]bool{}
	anyFault := false
	for _, cr := range res.Cells {
		c := cr.Cell
		if !seenFault[c.Faults] {
			seenFault[c.Faults] = true
			g.Faults = append(g.Faults, c.Faults.String())
			anyFault = anyFault || !c.Faults.IsZero()
		}
		if !seenSc[c.Scenario] {
			seenSc[c.Scenario] = true
			g.Scenarios = append(g.Scenarios, c.Scenario)
		}
		if p := c.Policy.String(); !seenPol[p] {
			seenPol[p] = true
			g.Policies = append(g.Policies, p)
		}
		if !seenScale[c.Scale] {
			seenScale[c.Scale] = true
			g.Scales = append(g.Scales, c.Scale)
		}
		if !seenOSS[c.OSSes] {
			seenOSS[c.OSSes] = true
			g.OSSes = append(g.OSSes, c.OSSes)
		}
		if !seenSeed[c.Seed] {
			seenSeed[c.Seed] = true
			g.Seeds = append(g.Seeds, c.Seed)
		}
	}
	if !anyFault {
		// An all-clean grid keeps its pre-fault-axis shape: no faults key
		// at all beats a ["none"] that every consumer must special-case.
		g.Faults = nil
	}
	return g
}

// JSON marshals the document, indented.
func (d *Document) JSON() ([]byte, error) { return json.MarshalIndent(d, "", "  ") }

// WriteJSON writes the document to path.
func (d *Document) WriteJSON(path string) error {
	buf, err := d.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
