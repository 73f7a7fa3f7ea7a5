package adaptbf

import (
	"context"
	"net"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/cluster"
	"adaptbf/internal/controller"
	"adaptbf/internal/core"
	"adaptbf/internal/device"
	"adaptbf/internal/experiments"
	"adaptbf/internal/harness"
	"adaptbf/internal/metrics"
	"adaptbf/internal/report"
	"adaptbf/internal/sim"
	"adaptbf/internal/stats"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// A Policy selects the bandwidth-control mechanism: no control (FCFS),
// static priority-proportional TBF rules, the adaptive AdapTBF
// controller, or one of three comparison points (SFQ(D), GIFT, EDT).
type Policy = sim.Policy

// The paper's three evaluation mechanisms, plus the related-work SFQ(D)
// fair-queueing baseline (§II/§V), the GIFT centralized coupon
// allocator, and EDT (Earliest Departure Time) per-flow pacing.
const (
	PolicyNoBW    = sim.NoBW
	PolicyStatic  = sim.StaticBW
	PolicyAdapTBF = sim.AdapTBF
	PolicySFQ     = sim.SFQ
	PolicyGIFT    = sim.GIFT
	PolicyEDT     = sim.EDT
)

// A Job is a named, prioritized set of I/O processes (see
// internal/workload for the pattern vocabulary).
type Job = workload.Job

// A Pattern describes one process's I/O behaviour.
type Pattern = workload.Pattern

// A Scenario describes one simulation run (see sim.Config for every
// knob).
type Scenario = sim.Config

// A Result carries a finished run's timelines, records, and overheads.
type Result = sim.Result

// A Timeline is a binned per-job throughput series.
type Timeline = metrics.Timeline

// DeviceParams models a storage target.
type DeviceParams = device.Params

// AllocatorOption tweaks the token allocation algorithm (ablations,
// record TTL, demand estimators).
type AllocatorOption = core.Option

// Allocation algorithm options, re-exported for scenario construction and
// ablation studies.
var (
	WithoutRedistribution = core.WithoutRedistribution
	WithoutRecompensation = core.WithoutRecompensation
	WithoutRemainders     = core.WithoutRemainders
	WithRecordTTL         = core.WithRecordTTL
)

// ContinuousJob builds a job of identical continuous sequential writers
// (the paper's I/O-intensive personality): procs processes, fileBytes per
// process, nodes compute nodes.
func ContinuousJob(id string, nodes, procs int, fileBytes int64) Job {
	return workload.Continuous(id, nodes, procs, fileBytes)
}

// BurstyJob builds a job of periodic-burst writers: bursts of burstRPCs
// requests separated by interval idle gaps.
func BurstyJob(id string, nodes, procs int, fileBytes int64, burstRPCs int, interval time.Duration) Job {
	return workload.Bursty(id, nodes, procs, fileBytes, burstRPCs, interval)
}

// DelayedPattern postpones a pattern's start, for the paper's
// delayed-stream workloads (§IV-F).
func DelayedPattern(p Pattern, delay time.Duration) Pattern {
	return workload.Delayed(p, delay)
}

// StripedJob builds a job of continuous writers whose files are each
// striped across `stripes` storage targets (0 = all) — the multi-OSS
// Lustre deployment shape of the paper's testbed.
func StripedJob(id string, nodes, procs int, fileBytes int64, stripes int) Job {
	return workload.StripedSequential(id, nodes, procs, fileBytes, stripes)
}

// MixedReadWriteJob builds a job mixing continuous readers and writers —
// the read/write interference workload.
func MixedReadWriteJob(id string, nodes, readers, writers int, fileBytes int64) Job {
	return workload.MixedReadWrite(id, nodes, readers, writers, fileBytes)
}

// StaggeredBurstJob builds a job of burst writers whose processes arrive
// staggered — a fan-in wave stressing redistribution and re-compensation.
func StaggeredBurstJob(id string, nodes, procs int, fileBytes int64, burst int, interval, stagger time.Duration) Job {
	return workload.StaggeredBurst(id, nodes, procs, fileBytes, burst, interval, stagger)
}

// DefaultDevice returns the SSD-class storage target model used by the
// paper reproduction.
func DefaultDevice() DeviceParams { return device.Default() }

// Run executes a scenario under the deterministic discrete-event
// simulator and returns its result.
func Run(s Scenario) (*Result, error) { return sim.Run(s) }

// ExperimentParams scales a paper experiment (Scale 1 = the paper's
// volumes).
type ExperimentParams = experiments.Params

// ExperimentReport is a regenerated figure: tables, timelines, series.
type ExperimentReport = experiments.Report

// PaperParams returns the paper-fidelity experiment parameters
// (T_i = 500 tokens/s, Δt = 100 ms, 1 GiB files).
func PaperParams() ExperimentParams { return experiments.DefaultParams() }

// The paper's experiments, one runner per figure pair. See DESIGN.md §4
// for the experiment index.
var (
	RunAllocationExperiment     = experiments.RunAllocation     // Figures 3-4 (§IV-D)
	RunRedistributionExperiment = experiments.RunRedistribution // Figures 5-6 (§IV-E)
	RunRecompensationExperiment = experiments.RunRecompensation // Figures 7-8 (§IV-F)
	RunFrequencySweep           = experiments.RunFrequencySweep // Figure 9 (§IV-H)
	RunOverheadAnalysis         = experiments.RunOverhead       // §IV-G
	RunSFQComparison            = experiments.RunSFQComparison  // extension: vs SFQ(D)
	RunGIFTComparison           = experiments.RunGIFTComparison // extension: vs GIFT
)

// Scenario-matrix engine: declare a matrix (scenario × policy × scale ×
// OSS count × seed), fan the cells out over a bounded worker pool on a
// pluggable execution backend, and merge the results deterministically
// (see internal/harness).
type (
	// ScenarioMatrix declares the cross product of runs.
	ScenarioMatrix = harness.Matrix
	// MatrixScenario names a workload family for the matrix.
	MatrixScenario = harness.Scenario
	// MatrixCellParams is a scenario generator's view of one cell.
	MatrixCellParams = harness.CellParams
	// MatrixOptions tunes a matrix run (worker count, progress hook).
	//
	// Deprecated: use MatrixRunOption values with RunMatrixCtx.
	MatrixOptions = harness.Options
	// MatrixResult holds every cell's outcome in canonical order.
	MatrixResult = harness.MatrixResult
	// MatrixCellResult is one cell's outcome (result, digests, backend).
	MatrixCellResult = harness.CellResult

	// MatrixRunOption is a functional option for RunMatrixCtx.
	MatrixRunOption = harness.RunOption
	// MatrixBackend executes matrix cells on some substrate; SimBackend
	// and ClusterBackend are the built-in implementations.
	MatrixBackend = harness.Backend
	// MatrixCellSpec is what a backend receives per cell.
	MatrixCellSpec = harness.CellSpec
	// MatrixCellOutcome is what a backend returns per cell.
	MatrixCellOutcome = harness.CellOutcome
	// SimBackend runs cells on the deterministic discrete-event
	// simulator (the default backend).
	SimBackend = harness.SimBackend
	// ClusterBackend runs cells as live in-process storage servers and
	// job runners on the wall clock.
	ClusterBackend = harness.ClusterBackend
)

// Matrix run options, re-exported for RunMatrixCtx.
var (
	// WithMatrixWorkers bounds the worker pool (≤0 = NumCPU).
	WithMatrixWorkers = harness.WithWorkers
	// WithMatrixBackend selects the execution backend for every cell.
	WithMatrixBackend = harness.WithBackend
	// WithMatrixProgress observes each finished cell.
	WithMatrixProgress = harness.WithProgress
	// WithMatrixCellTimeout bounds each cell's execution.
	WithMatrixCellTimeout = harness.WithCellTimeout
	// WithMatrixDigests enables per-job latency digest capture.
	WithMatrixDigests = harness.WithDigests
	// WithMatrixFailFast aborts dispatch after the first failed cell.
	WithMatrixFailFast = harness.WithFailFast
	// WithMatrixObs runs every cell with the observability layer
	// (internal/obs) enabled: each CellResult carries a metrics
	// snapshot and a span trace, exportable as one Chrome trace-event
	// document via MatrixResult.WriteTrace.
	WithMatrixObs = harness.WithObs
	// WithMatrixRecordTrace records every cell's workload as a versioned
	// trace file in the given directory (sim backend only); a recorded
	// trace replayed via ReplayWorkloadMatrix reproduces the cell's
	// fingerprint bit-for-bit.
	WithMatrixRecordTrace = harness.WithRecordTrace
)

// ReplayWorkloadMatrix rebuilds the single-cell matrix a recorded
// workload trace came from, with the policy axis free to sweep (empty =
// the default policies).
func ReplayWorkloadMatrix(path string, policies []Policy) (ScenarioMatrix, error) {
	return harness.ReplayMatrix(path, policies)
}

// RunMatrixCtx executes every cell of the matrix concurrently on the
// configured backend (the deterministic simulator by default; pass
// WithMatrixBackend(&ClusterBackend{...}) for live wall-clock cells).
// Canceling ctx stops dispatch and drains the pool cleanly. With the
// default backend the merged result is identical whatever the worker
// count.
func RunMatrixCtx(ctx context.Context, m ScenarioMatrix, opts ...MatrixRunOption) (*MatrixResult, error) {
	return harness.Run(ctx, m, opts...)
}

// RunMatrix executes every cell of the matrix concurrently; the merged
// result is identical whatever the worker count.
//
// Deprecated: use RunMatrixCtx with functional options; RunMatrix keeps
// the pre-context signature working for one release.
func RunMatrix(m ScenarioMatrix, opt MatrixOptions) (*MatrixResult, error) {
	return harness.RunOptions(m, opt)
}

// DefaultScenarios returns the materialized preset trio — striped
// sequential, mixed read/write interference, and staggered fan-in
// bursts — which run on every backend and pin the golden fingerprint.
func DefaultScenarios() []MatrixScenario { return harness.DefaultScenarios() }

// BuiltinScenarios returns the full scenario library: the materialized
// trio plus the generative streaming scenarios (poisson-mix,
// gamma-burst, diurnal-tenants), which run on the sim backend only.
func BuiltinScenarios() []MatrixScenario { return harness.BuiltinScenarios() }

// LoadWorkloadScenario loads a declarative workload spec file (see
// internal/workgen) and wraps it as a matrix scenario: jobs-mode specs
// materialize up front, stream-mode specs generate jobs lazily on the
// sim backend.
func LoadWorkloadScenario(path string) (MatrixScenario, error) {
	return harness.LoadScenarioSpec(path)
}

// SaturationRampScenario returns the overload workload behind the
// capacity-at-SLO saturation study. Unlike the builtin scenarios, its
// Scale is an offered-load multiplier (more concurrent processes), not
// a volume divisor, so sweeping the scale axis walks the cell into
// saturation.
func SaturationRampScenario() MatrixScenario { return harness.SaturationRampScenario() }

// A MatrixFaultProfile is one entry of the matrix's fault axis: a
// deterministic fault-injection profile (network half on the live and
// remote backends, process half — crash/restart/straggler — on remote
// only). The zero profile is fault-free.
type MatrixFaultProfile = harness.FaultProfile

// ParseFaultProfiles parses a ";"-separated fault-profile axis; "none"
// or an empty entry is the fault-free profile, and the empty string is
// the single-entry fault-free axis.
func ParseFaultProfiles(s string) ([]MatrixFaultProfile, error) {
	return harness.ParseFaultProfiles(s)
}

// Matrix analytics & export (internal/stats, internal/report): streaming
// moment accumulators with Student-t confidence intervals over the seed
// axis, mergeable fixed-bucket latency digests captured per cell, and
// versioned machine-readable documents for every merged matrix run.
type (
	// Moments is a streaming Welford mean/variance/min/max accumulator
	// with Student-t interval queries.
	Moments = stats.Moments
	// LatencyDigest is a mergeable log-bucket latency histogram with
	// nearest-rank quantile estimates.
	LatencyDigest = stats.Digest
	// MatrixDocument is the schema-versioned JSON form of a merged
	// matrix run (grid axes, per-cell summaries + digests, policy means
	// with confidence intervals).
	MatrixDocument = report.Document
	// MatrixDocumentOptions tunes document construction (CI level,
	// bucket embedding).
	MatrixDocumentOptions = report.Options
	// GIFTScaleStudyOptions parameterizes the built-in
	// centralization-overhead scale study.
	GIFTScaleStudyOptions = report.ScaleStudyOptions
	// GIFTScaleStudyResult is a finished scale study: raw matrix, JSON
	// document, and renderable/CSV-exportable report.
	GIFTScaleStudyResult = report.ScaleStudy
	// CalibrationStudyOptions parameterizes the built-in live-vs-sim
	// calibration study.
	CalibrationStudyOptions = report.CalibrationStudyOptions
	// CalibrationStudyResult is a finished calibration study: both
	// merged matrices, the schema-v3 JSON document (with its divergence
	// section), and the renderable/CSV-exportable report.
	CalibrationStudyResult = report.CalibrationStudy
)

// MatrixDocumentSchemaVersion is the version stamped into every
// MatrixDocument.
const MatrixDocumentSchemaVersion = report.SchemaVersion

// NewMatrixDocument builds the machine-readable document for a merged
// matrix run.
func NewMatrixDocument(res *MatrixResult, opt MatrixDocumentOptions) *MatrixDocument {
	return report.FromMatrix(res, opt)
}

// RunGIFTScaleStudy sweeps GIFT (centralized coupon controller) vs
// AdapTBF (decentralized per-target controllers) vs the NoBW floor
// across OSS counts with seed replication, quantifying the paper's
// centralization-overhead argument with confidence intervals. The zero
// options run the acceptance grid: OSS {1,2,4,8} × seeds {1..5}.
func RunGIFTScaleStudy(opt GIFTScaleStudyOptions) (*GIFTScaleStudyResult, error) {
	return report.RunGIFTScaleStudy(opt)
}

// RunCalibrationStudy executes the same grid on the deterministic
// simulator and the live cluster backend (all five policies by default)
// and quantifies the per-policy divergence of throughput, priority
// fairness, and tail latency between the two substrates with
// cell-paired confidence intervals — the sim-to-deployment credibility
// check. Rows drifting beyond OutlierPct are flagged. CLI:
// adaptbf-matrix -study calibration.
func RunCalibrationStudy(opt CalibrationStudyOptions) (*CalibrationStudyResult, error) {
	return report.RunCalibrationStudy(opt)
}

// Admission control & overload protection (internal/admission): a
// policy seam in front of every storage server — on all three backends
// — that decides, per RPC, whether work enters the scheduler at all.
type (
	// AdmissionConfig declares an admission policy; the zero value is
	// always-admit and is bit-identical to running without the layer.
	AdmissionConfig = admission.Config
	// Admitter is the per-OSS admission decision seam.
	Admitter = admission.Admitter
)

// The admission policies: pass-through, byte-budget refusal, and
// bounded queueing with deadline shedding.
const (
	AdmitAlways        = admission.PolicyAlways
	AdmitTokenBucket   = admission.PolicyTokenBucket
	AdmitDeadlineQueue = admission.PolicyDeadlineQueue
)

// ParseAdmission parses one admission policy, e.g.
// "token-bucket:cap=64MiB,refill=256MiB" (empty = always-admit).
func ParseAdmission(s string) (AdmissionConfig, error) { return admission.Parse(s) }

// ParseAdmissionList parses a ";"-separated admission-policy list, as
// the saturation study's comparison axis takes it.
func ParseAdmissionList(s string) ([]AdmissionConfig, error) { return admission.ParseList(s) }

// Saturation (capacity-at-SLO) study types.
type (
	// SaturationStudyOptions parameterizes the built-in capacity-at-SLO
	// saturation study.
	SaturationStudyOptions = report.SaturationStudyOptions
	// SaturationStudyResult is a finished saturation study: the
	// schema-versioned JSON document (with its saturation section) and
	// the renderable/CSV-exportable report.
	SaturationStudyResult = report.SaturationStudy
)

// RunSaturationStudy finds, per admission policy, the capacity-at-SLO
// knee: the largest offered-load multiple of the saturation-ramp
// scenario at which the seed-mean p99 still meets the SLO, bisected by
// exponential ramp + binary search, with seed-axis confidence intervals
// and the goodput/rejected split at the knee. CLI: adaptbf-matrix
// -study saturation.
func RunSaturationStudy(opt SaturationStudyOptions) (*SaturationStudyResult, error) {
	return report.RunSaturationStudy(opt)
}

// TQuantile exposes the Student-t quantile the interval columns use
// (p-quantile at df degrees of freedom), for callers building their own
// seed-axis statistics.
func TQuantile(p float64, df int) float64 { return stats.TQuantile(p, df) }

// Live-cluster mode: real goroutine storage servers and job runners over
// the gob RPC transport, one decentralized AdapTBF controller per target.
type (
	// OSS is a live object storage server.
	OSS = cluster.OSS
	// OSSConfig parameterizes a live server.
	OSSConfig = cluster.OSSConfig
	// JobRunner executes a Job against live servers.
	JobRunner = cluster.JobRunner
	// JobStats summarizes a live job run.
	JobStats = cluster.JobStats
	// NodeMapper supplies per-job compute-node counts to a controller.
	NodeMapper = controller.NodeMapper
	// NodeMapperFunc adapts a function to NodeMapper.
	NodeMapperFunc = controller.NodeMapperFunc
	// SFQOSSConfig swaps a live server's TBF scheduler for a weighted
	// SFQ(D) gate (OSSConfig.SFQ) — the related-work baseline, live.
	SFQOSSConfig = cluster.SFQConfig
	// GIFTCoordinator is the live centralized GIFT coupon-bank service:
	// one per system, consulted by every OSS's GIFTAgent over the
	// transport each epoch.
	GIFTCoordinator = cluster.GIFTCoordinator
	// GIFTAgent is one OSS's coordinator-facing GIFT client
	// (OSS.NewGIFTAgent).
	GIFTAgent = cluster.GIFTAgent
)

// NewOSS starts a live storage server.
func NewOSS(cfg OSSConfig) *OSS { return cluster.NewOSS(cfg) }

// NewGIFTCoordinator starts the centralized GIFT decision maker with the
// given epoch; serve it with PipeOSS-style transport plumbing
// (transport.Pipe / transport.Serve) and point each OSS's agent at it.
func NewGIFTCoordinator(epoch time.Duration) *GIFTCoordinator {
	return cluster.NewGIFTCoordinator(epoch)
}

// An RPCClient issues requests to a live storage server.
type RPCClient = transport.Client

// A Caller is any RPC endpoint a JobRunner or GIFT agent can target: an
// RPCClient over one connection, or a Redialer that reconnects across
// server restarts.
type Caller = transport.Caller

// A Redialer is a reconnecting Caller: a poisoned connection is redialed
// on the next call, with bounded backoff retry per call.
type Redialer = transport.Redialer

// A Fault is an injected network-misbehaviour profile (latency, jitter,
// loss, bandwidth cap) for one side of a transport connection.
type Fault = transport.Fault

// ParseFault parses "latency=2ms,jitter=1ms,loss=0.1,bw=64MiB".
func ParseFault(s string) (Fault, error) { return transport.ParseFault(s) }

// FaultedConn wraps conn with deterministic, seed-keyed fault injection.
func FaultedConn(conn net.Conn, f Fault, seed uint64) net.Conn {
	return transport.FaultedConn(conn, f, seed)
}

// DialOSS connects to a storage server listening on the given address.
func DialOSS(network, addr string) (*RPCClient, error) {
	return transport.Dial(network, addr)
}

// ServeOSS accepts client connections on l and serves them against the
// storage server until the listener closes.
func ServeOSS(l net.Listener, oss *OSS) error { return transport.Serve(l, oss) }

// PipeOSS returns an in-process client connected to the storage server,
// for single-process demos and tests.
func PipeOSS(oss *OSS) *RPCClient { return transport.Pipe(oss) }
