// Package sim wires every substrate into a deterministic discrete-event
// simulation of one Lustre-style storage stack: workload processes on
// clients issue RPCs over a small network delay to object storage servers,
// where a TBF scheduler (package tbf) gates them into a storage device
// model (package device), while — under the AdapTBF policy — a controller
// (package controller) re-allocates token rates every observation period.
//
// The three policies of the paper's evaluation (§IV-C) are supported, plus
// one more from its related work for comparison:
//
//   - NoBW:    no TBF rules; pure FCFS from the fallback queue.
//   - Static:  one rule per job, fixed for the whole run, with rate
//     proportional to the job's share of all compute nodes in the system.
//   - AdapTBF: the full adaptive borrowing/lending controller.
//   - SFQ:     start-time fair queueing with depth (§II/§V's
//     proportional-share alternative, as vPFS uses), weighted by
//     compute nodes — work-conserving but memoryless.
//   - GIFT:    the centralized coupon-based throttle-and-reward manager
//     (§IV-C's "most comparable" system): one controller spans every
//     storage target, shares are equal per application (priority-
//     unaware), and ceded bandwidth earns redeemable coupons.
//
// Runs are bit-for-bit deterministic: identical configurations produce
// identical results.
//
// The per-RPC path is (near-)zero-allocation in steady state: job IDs are
// interned to dense indices at config time (string names survive at the
// reporting boundary only), each RPC's request+tag rides one pooled
// rpcToken for its whole lifetime, every recurring event is scheduled
// through a pre-bound callback (see des.AtCall), per-stream accounting is
// a dense slice, and superseded OST wake events are suppressed by a
// generation counter instead of firing no-op kicks. A harness worker can
// additionally reuse one Scratch across many runs to share the event
// arena and token pool between matrix cells.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/controller"
	"adaptbf/internal/core"
	"adaptbf/internal/des"
	"adaptbf/internal/device"
	"adaptbf/internal/edt"
	"adaptbf/internal/gift"
	"adaptbf/internal/jobstats"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/rules"
	"adaptbf/internal/sfq"
	"adaptbf/internal/stats"
	"adaptbf/internal/tbf"
	"adaptbf/internal/workgen"
	"adaptbf/internal/workload"
)

// A Policy selects the bandwidth-control mechanism under test.
type Policy int

// The six policies: the paper's three evaluation mechanisms (NoBW,
// StaticBW, AdapTBF), then three comparison points — the related-work
// SFQ(D) fair-queueing baseline, the GIFT centralized coupon allocator,
// and EDT (Earliest Departure Time) per-flow pacing.
const (
	NoBW Policy = iota
	StaticBW
	AdapTBF
	SFQ
	GIFT
	EDT
)

// String names the policy as the paper does.
func (p Policy) String() string {
	switch p {
	case NoBW:
		return "No BW"
	case StaticBW:
		return "Static BW"
	case AdapTBF:
		return "AdapTBF"
	case SFQ:
		return "SFQ(D)"
	case GIFT:
		return "GIFT"
	case EDT:
		return "EDT"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Flag is the policy's command-line name — what ParsePolicy accepts and
// what adaptbf-node's -policy takes. It is empty for an unknown policy.
func (p Policy) Flag() string {
	switch p {
	case NoBW:
		return "nobw"
	case StaticBW:
		return "static"
	case AdapTBF:
		return "adaptbf"
	case SFQ:
		return "sfq"
	case GIFT:
		return "gift"
	case EDT:
		return "edt"
	default:
		return ""
	}
}

// ParsePolicy maps a policy name to its Policy: any Flag value
// (case-insensitive), or an alias — none and fcfs for NoBW, sfqd and
// sfq(d) for SFQ. The empty string means AdapTBF.
func ParsePolicy(s string) (Policy, error) {
	switch name := strings.ToLower(strings.TrimSpace(s)); name {
	case "":
		return AdapTBF, nil
	case "none", "fcfs":
		return NoBW, nil
	case "sfqd", "sfq(d)":
		return SFQ, nil
	default:
		for p := NoBW; p <= EDT; p++ {
			if name == p.Flag() {
				return p, nil
			}
		}
	}
	return 0, fmt.Errorf("sim: unknown policy %q (want nobw, static, adaptbf, sfq, edt, or gift)", s)
}

// Config describes one simulation scenario.
type Config struct {
	Policy Policy
	Jobs   []workload.Job

	// Source streams jobs lazily instead of materializing them: each
	// generated job becomes one bounded transfer (Bytes in RPCBytes
	// chunks) billed to its tenant, admitted into the event loop at its
	// arrival time — or, when all MaxActive() slots are occupied, when
	// the next slot frees. Mutually exclusive with Jobs. A streaming run
	// holds MaxActive process slots regardless of stream length, and
	// forces StreamStats so per-RPC state stays flat too.
	Source workgen.Stream
	// StreamStats folds per-RPC latencies incrementally into
	// stats.Digest instead of recording them per-RPC in the latency
	// recorder: Result.LatencyDigest (and, with PerJobDigests,
	// Result.JobLatencyDigests) replace Result.Latencies. Usable with
	// materialized Jobs too — the fold is order-independent, so the
	// digest equals the one fed from a recorded run bit-for-bit.
	StreamStats bool
	// PerJobDigests adds per-job latency digests under StreamStats.
	PerJobDigests bool

	// MaxTokenRate is T_i per OST in tokens/s. Defaults to 500
	// (≈ 500 MiB/s with 1 MiB RPCs, the SSD-class OST of Table II).
	MaxTokenRate float64
	// Period is the observation period Δt. Defaults to 100 ms (§IV-H).
	Period time.Duration
	// Device parameterizes each OST's backing store. Zero value means
	// device.Default().
	Device device.Params
	// BucketDepth is the TBF bucket depth. Defaults to Lustre's 3.
	BucketDepth float64
	// NetDelay is the one-way client↔server latency. Defaults to 100 µs
	// (25 GbE class).
	NetDelay time.Duration
	// OSTs is the number of storage targets; processes stripe their RPCs
	// round-robin across them. Defaults to 1, as in the paper's
	// single-OST timelines.
	OSTs int
	// Duration caps the simulated time. Required when any process is
	// unbounded; otherwise defaults to MaxDuration.
	Duration time.Duration
	// BinWidth is the metrics bin. Defaults to Period.
	BinWidth time.Duration
	// AllocOpts forwards ablation options to the allocator.
	AllocOpts []core.Option
	// StaticTotalNodes overrides the node total used for Static BW
	// priorities ("resources available in the system"). Defaults to the
	// sum over Jobs.
	StaticTotalNodes int
	// SampleRecords enables per-tick record/demand series collection
	// (Figure 7). Only meaningful under AdapTBF. When false,
	// Result.Records stays nil (its accessors are nil-safe).
	SampleRecords bool
	// SFQDepth is the dispatch depth D for the SFQ policy. Defaults to 1
	// (the device model serves one request at a time).
	SFQDepth int
	// Admission selects the overload-protection policy in front of each
	// OST (package admission). The zero value is always-admit: the
	// admission seam is skipped entirely and the simulation is
	// bit-identical to one without the field.
	Admission admission.Config
	// Obs attaches observability sinks (package obs): a structured
	// tracer producing per-RPC and controller-epoch spans on virtual
	// timestamps (same seed ⇒ bit-identical trace) and a metrics
	// registry. nil — the default — disables both: every hot-path hook
	// is a single nil check, the simulation allocates nothing extra, and
	// results are bit-identical to a run without the field. Obs output
	// is reporting-only and never joins any fingerprint.
	Obs *obs.CellObs
}

// MaxDuration caps bounded scenarios that fail to converge (e.g. a
// mis-tuned Static BW run); hitting it leaves Result.Done false.
const MaxDuration = 2 * time.Hour

// A Result carries everything the experiment runners need.
type Result struct {
	Policy    Policy
	Timeline  *metrics.Timeline        // completed bytes per job, all OSTs combined
	Records   *metrics.SeriesSet       // "record:<job>", "demand:<job>" (AdapTBF with SampleRecords only; nil otherwise)
	Latencies *metrics.LatencyRecorder // client-perceived per-RPC latency per job

	// Per-tick controller costs, for the §IV-G overhead analysis. Under
	// AdapTBF one entry per OSS-controller tick; under GIFT one entry per
	// storage target the centralized controller walks each epoch (the
	// walk is serial by design — that seriality is the coordination cost
	// the scale study measures). Wall-clock values: reporting-only, never
	// part of any fingerprint.
	AllocTimes []time.Duration
	TickTimes  []time.Duration
	RuleOps    int

	// CtrlMsgs counts coordination messages at the policy's control
	// point, deterministically: every controller cycle on a storage
	// target costs two messages (collect stats/backlog, install the
	// allocation) plus one per TBF rule operation applied. Under AdapTBF
	// the messages stay node-local (each target's controller is
	// co-resident); under GIFT every one of them crosses to the single
	// central controller. Unlike TickTimes this is a pure function of
	// the simulation — the scale study's fingerprint-stable coordination
	// measure. Zero under NoBW/Static/SFQ (no periodic controller).
	CtrlMsgs int64

	// GIFT centralization state at the end of the run: applications with
	// a non-zero balance in the global coupon bank and the total balance
	// outstanding. Zero under every other policy.
	GIFTBankEntries        int
	GIFTCouponsOutstanding float64

	FinishTimes map[string]time.Duration // job → completion time
	Done        bool                     // every bounded process finished
	Elapsed     time.Duration            // simulated time at the end

	DeviceBusy []time.Duration // per-OST busy time
	ServedRPCs uint64          // RPCs served across OSTs
	Events     uint64          // DES events processed (perf tracking, not part of any fingerprint)

	// Admission accounting (all zero under always-admit). Rejected
	// counts RPCs refused on arrival; Shed counts RPCs admitted with a
	// queueing deadline and dropped at dispatch after it expired.
	// Rejected/shed RPCs are excluded from the Timeline, the latency
	// recorder, and ServedRPCs — but included in OfferedBytes, so a
	// policy cannot "improve" latency by shedding without the loss
	// showing up in goodput (the H5 lesson).
	Rejected     uint64
	Shed         uint64
	OfferedBytes int64 // payload bytes of every RPC that reached an OST
	GoodputBytes int64 // payload bytes of RPCs actually served

	// Streaming/digest results (StreamStats runs only; nil otherwise).
	// LatencyDigest folds every served RPC's client-perceived latency;
	// JobLatencyDigests (PerJobDigests only) split the fold per job,
	// sorted by job ID. Under a Source, StreamJobs counts completed
	// stream jobs, StreamWaitDigest folds arrival→admission waits (slot
	// queueing at the generator seam), and StreamJobDigest folds
	// arrival→completion sojourn times.
	LatencyDigest     *stats.Digest
	JobLatencyDigests []JobLatencyDigest
	StreamJobs        int64
	StreamWaitDigest  *stats.Digest
	StreamJobDigest   *stats.Digest
}

// A JobLatencyDigest is one job's latency fold in a StreamStats run.
type JobLatencyDigest struct {
	Job    string
	Digest *stats.Digest
}

// GoodputPct is the served fraction of offered bytes, in percent. An
// idle run (nothing offered) reports 100: nothing was refused.
func (r *Result) GoodputPct() float64 {
	if r.OfferedBytes <= 0 {
		return 100
	}
	return 100 * float64(r.GoodputBytes) / float64(r.OfferedBytes)
}

// Utilization reports the fraction of the makespan OST i spent busy.
func (r *Result) Utilization(i int) float64 {
	if r.Elapsed <= 0 || i < 0 || i >= len(r.DeviceBusy) {
		return 0
	}
	return float64(r.DeviceBusy[i]) / float64(r.Elapsed)
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Source != nil {
		if len(out.Jobs) > 0 {
			return out, fmt.Errorf("sim: Source and Jobs are mutually exclusive")
		}
		if out.Source.MaxActive() < 1 {
			return out, fmt.Errorf("sim: stream source needs MaxActive >= 1")
		}
		if len(out.Source.Tenants()) == 0 {
			return out, fmt.Errorf("sim: stream source has no tenants")
		}
		// Flat memory requires the digest fold: per-RPC recording would
		// grow with stream length.
		out.StreamStats = true
	} else if len(out.Jobs) == 0 {
		return out, fmt.Errorf("sim: no jobs")
	}
	for _, j := range out.Jobs {
		if err := j.Validate(); err != nil {
			return out, err
		}
	}
	if out.MaxTokenRate == 0 {
		out.MaxTokenRate = 500
	}
	if out.MaxTokenRate < 0 {
		return out, fmt.Errorf("sim: negative MaxTokenRate")
	}
	if out.Period == 0 {
		out.Period = 100 * time.Millisecond
	}
	if out.Period < 0 {
		return out, fmt.Errorf("sim: negative Period")
	}
	if out.Device.BytesPerSec == 0 {
		out.Device = device.Default()
	}
	if out.BucketDepth == 0 {
		out.BucketDepth = tbf.DefaultBucketDepth
	}
	if out.NetDelay == 0 {
		out.NetDelay = 100 * time.Microsecond
	}
	if out.NetDelay < 0 {
		return out, fmt.Errorf("sim: negative NetDelay")
	}
	if out.OSTs == 0 {
		out.OSTs = 1
	}
	if out.OSTs < 0 {
		return out, fmt.Errorf("sim: negative OSTs")
	}
	if out.BinWidth == 0 {
		out.BinWidth = out.Period
	}
	if out.SFQDepth == 0 {
		out.SFQDepth = 1
	}
	if out.SFQDepth < 0 {
		return out, fmt.Errorf("sim: negative SFQDepth")
	}
	if err := out.Admission.Validate(); err != nil {
		return out, err
	}
	unbounded := false
	for _, j := range out.Jobs {
		for _, p := range j.Procs {
			if p.FileBytes == 0 {
				unbounded = true
			}
		}
	}
	if out.Duration == 0 {
		if unbounded {
			return out, fmt.Errorf("sim: unbounded processes require a Duration")
		}
		out.Duration = MaxDuration
	}
	return out, nil
}

// A Scratch holds the reusable run-time storage of a simulation: the DES
// event arena and the RPC token pool. Passing the same Scratch to
// successive RunScratch calls (one Scratch per worker goroutine — it is
// not safe for concurrent use) lets a matrix worker replay thousands of
// cells without re-growing either structure, which is where most of a
// small cell's allocations otherwise go. Scratch never leaks state between
// runs: results are independent of whether (and which) Scratch was used.
type Scratch struct {
	loop   des.Loop
	tokens []*rpcToken
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Run executes the scenario and returns its result.
func Run(cfg Config) (*Result, error) {
	return RunScratch(cfg, nil)
}

// RunScratch executes the scenario reusing the given scratch storage (nil
// behaves like Run). The result is bit-for-bit identical either way.
func RunScratch(cfg Config, scratch *Scratch) (*Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if scratch == nil {
		scratch = NewScratch()
	}
	scratch.loop.Reset()
	s := newSimulation(c, scratch)
	s.start()
	// Step events manually rather than RunUntil so that a bounded
	// workload finishing early leaves the clock at its true makespan
	// instead of jumping to the duration cap.
	limit := int64(c.Duration)
	for {
		at, ok := s.loop.NextAt()
		if !ok || at > limit {
			break
		}
		s.loop.Step()
	}
	return s.finish(), nil
}

// simulation is the run-time state behind Run.
type simulation struct {
	cfg     Config
	loop    *des.Loop
	scratch *Scratch
	osts    []*ostState
	res     *Result

	jobIDs     []string       // interned job table: index ↔ cfg.Jobs order
	nodesByJob map[string]int // string lookups at the controller boundary
	procs      []*procState
	procsByJob [][]*procState // by job index

	unfinished   int // bounded procs still running
	hasUnbounded bool
	allDone      bool

	// Streaming state (Source runs only). The stream is pulled one job
	// ahead: pending holds the next arrival, and when every slot is
	// occupied the arrival waits at the seam until streamFinish frees
	// one. staticJobs carries the per-tenant pseudo-jobs Static BW rules
	// are computed from.
	src          workgen.Stream
	pending      workgen.Job
	pendingValid bool
	waiting      bool
	freeSlots    []int32
	activeJobs   int
	staticJobs   []workload.Job
	streamFn     func(arg any, n int64)

	// Digest folds (StreamStats runs only).
	latDig  *stats.Digest
	jobDigs []stats.Digest // per job index (PerJobDigests only)

	// Pre-bound event callbacks (see des.AtCall): one closure each per
	// run, shared by every RPC.
	beginFn    func(arg any, n int64)
	arriveFn   func(arg any, n int64)
	serveFn    func(arg any, n int64)
	replyFn    func(arg any, n int64)
	wakeFn     func(arg any, n int64)
	burstFn    func(arg any, n int64)
	giftActive []gift.Activity   // per-tick scratch (GIFT)
	giftAllocs []core.Allocation // per-tick scratch (GIFT)
	giftCtrl   *gift.Controller  // the one centralized controller (GIFT)

	// Observability (all nil when Config.Obs is nil — the hot paths
	// guard on trace/mets with one nil check and pay nothing else).
	trace   *obs.Tracer
	mets    *obs.Registry
	rpcSeq  uint64       // deterministic async-span id for traced RPCs
	tickCtr *obs.Counter // MetricCtrlTicks
	borrowG *obs.Gauge   // GaugeBorrowed (accumulated)
	bucketG *obs.Gauge   // GaugeBucketTokens (sampled at epochs)
	depthG  *obs.Gauge   // GaugeQueueDepth (sampled at epochs)
}

// A requestGate is the scheduler standing between arriving requests and
// the device. *tbf.Scheduler (NoBW/Static/AdapTBF) and *sfq.Scheduler
// both implement it.
type requestGate interface {
	Enqueue(req *tbf.Request, now int64)
	Dequeue(now int64) (req *tbf.Request, wake int64, ok bool)
	Pending() int
	PendingForJob(jobID string) int
	PendingJobsInto(dst map[string]int)
}

// ostState is one storage target: request gate + device + stats +
// (optionally) an AdapTBF controller.
type ostState struct {
	sim      *simulation
	idx      int
	gate     requestGate
	sched    *tbf.Scheduler // non-nil except under the SFQ policy
	sfqSched *sfq.Scheduler // non-nil only under the SFQ policy
	onServed func()         // SFQ dispatch-slot release; nil elsewhere
	dev      device.Device
	tracker  jobstats.Tracker
	ctrl     *controller.Controller
	adm      admission.Admitter // nil under always-admit (the common case)

	busy bool
	// Wake bookkeeping: at most one wake event is live per OST. wakeAt is
	// its timestamp (0 = none armed) and wakeGen stamps each scheduled
	// wake; bumping the generation strands any queued-but-superseded wake
	// as a no-op, so redundant Dequeue misses and gone-busy devices never
	// pile up extra events (see ostState.kick).
	wakeAt  int64
	wakeGen int64

	outstanding   []int // per-stream requests queued or in service here
	activeStreams int   // streams with outstanding > 0 (= len of the old map)

	backlogBuf map[string]int // reused per tick for controller backlog / GIFT pending
}

// rpcToken carries one RPC through its whole lifetime: the request
// submitted to the gate plus the client-side tag (which process issued it
// and when). Tokens are pooled on the Scratch, so the steady-state RPC
// path performs no allocation at all.
type rpcToken struct {
	req      tbf.Request
	proc     *procState
	issuedAt int64
	// admitDeadline is the admission layer's queueing deadline (0 =
	// none): a request still queued past it is shed at dispatch time.
	admitDeadline int64
	// Tracing fields, written only when a tracer is attached: the
	// request's async-span id and its arrival/dispatch timestamps.
	// Pooled with the token, they cost nothing when tracing is off.
	traceID    uint64
	arriveAt   int64
	dispatchAt int64
}

func (s *simulation) getToken() *rpcToken {
	if n := len(s.scratch.tokens); n > 0 {
		tok := s.scratch.tokens[n-1]
		s.scratch.tokens = s.scratch.tokens[:n-1]
		return tok
	}
	return &rpcToken{}
}

func (s *simulation) putToken(tok *rpcToken) {
	tok.proc = nil
	tok.req = tbf.Request{}
	tok.admitDeadline = 0
	tok.traceID = 0
	tok.arriveAt = 0
	tok.dispatchAt = 0
	s.scratch.tokens = append(s.scratch.tokens, tok)
}

// procState executes one workload.Pattern.
type procState struct {
	sim       *simulation
	jobID     string
	job       int32 // interned job index
	pat       workload.Pattern
	stream    int
	rpcsLeft  int64 // -1 = unbounded
	inflight  int
	burstLeft int
	started   bool
	done      bool

	// Stripe layout: the process's file occupies stripeCount consecutive
	// OSTs starting at stripeBase; ostRR round-robins its RPCs over them.
	stripeBase  int
	stripeCount int
	ostRR       int

	// arrivalAt is the stream job's arrival timestamp (Source runs only).
	arrivalAt int64
}

func newSimulation(c Config, scratch *Scratch) *simulation {
	s := &simulation{
		cfg:        c,
		loop:       &scratch.loop,
		scratch:    scratch,
		nodesByJob: make(map[string]int, len(c.Jobs)),
		res: &Result{
			Policy:      c.Policy,
			Timeline:    metrics.NewTimeline(c.BinWidth),
			Latencies:   &metrics.LatencyRecorder{},
			FinishTimes: make(map[string]time.Duration),
		},
	}
	if c.SampleRecords {
		s.res.Records = metrics.NewSeriesSet()
	}
	if c.Obs != nil {
		s.trace = c.Obs.Tracer
		s.mets = c.Obs.Metrics
		if s.mets != nil {
			// Resolve the periodic metrics once so epoch hooks never take
			// the registry mutex on the simulation's clock.
			s.tickCtr = s.mets.Counter(obs.MetricCtrlTicks)
			s.borrowG = s.mets.Gauge(obs.GaugeBorrowed)
			s.bucketG = s.mets.Gauge(obs.GaugeBucketTokens)
			s.depthG = s.mets.Gauge(obs.GaugeQueueDepth)
		}
	}
	// Intern the job table. Job index i is cfg.Jobs[i]'s position — or,
	// under a stream Source, tenant i's slot in the stream's tenant
	// table — and the Timeline and LatencyRecorder intern the same names
	// in the same order so every component shares one index space.
	s.src = c.Source
	if s.src != nil {
		tenants := s.src.Tenants()
		s.jobIDs = make([]string, len(tenants))
		s.staticJobs = make([]workload.Job, len(tenants))
		for i, t := range tenants {
			s.jobIDs[i] = t.ID
			s.nodesByJob[t.ID] = t.Nodes
			s.res.Timeline.JobIndex(t.ID)
			s.res.Latencies.JobIndex(t.ID)
			s.staticJobs[i] = workload.Job{ID: t.ID, Nodes: t.Nodes}
		}
	} else {
		s.jobIDs = make([]string, len(c.Jobs))
		for i, job := range c.Jobs {
			s.jobIDs[i] = job.ID
			s.nodesByJob[job.ID] = job.Nodes
			s.res.Timeline.JobIndex(job.ID)
			s.res.Latencies.JobIndex(job.ID)
		}
		s.staticJobs = c.Jobs
	}
	s.procsByJob = make([][]*procState, len(s.jobIDs))
	// Total node count across jobs — the denominator of EDT's fixed
	// per-flow rate shares (mirrors workload.StaticRules' split).
	totalNodes := 0
	for _, n := range s.nodesByJob {
		totalNodes += n
	}
	// OST and process states live in two slabs: one allocation each for
	// the whole stack instead of one per object.
	ostSlab := make([]ostState, c.OSTs)
	s.osts = make([]*ostState, c.OSTs)
	for i := range ostSlab {
		o := &ostSlab[i]
		o.sim = s
		o.idx = i
		o.dev = *device.New(c.Device)
		o.backlogBuf = make(map[string]int)
		o.adm = c.Admission.New()
		o.tracker.SetJobs(s.jobIDs)
		if c.Policy == SFQ {
			q := sfq.New(c.SFQDepth, func(jobID string) float64 {
				return float64(s.nodesByJob[jobID])
			})
			q.SetJobs(s.jobIDs)
			o.gate = q
			o.sfqSched = q
			o.onServed = q.Complete
		} else if c.Policy == EDT {
			// EDT paces in bytes; a token is one RPC ≈ 1 MiB (the
			// MaxTokenRate convention), so a job's fixed per-OST byte
			// rate is its node share of T_i converted to bytes/s —
			// the same split Static BW's rules encode as token rates.
			q := edt.New(edt.Config{Rates: func(jobID string) float64 {
				if totalNodes == 0 {
					return 0
				}
				return float64(s.nodesByJob[jobID]) / float64(totalNodes) * c.MaxTokenRate * (1 << 20)
			}})
			q.SetJobs(s.jobIDs)
			o.gate = q
		} else {
			o.sched = tbf.NewScheduler(tbf.Config{BucketDepth: c.BucketDepth})
			o.sched.SetJobCount(len(s.jobIDs))
			o.gate = o.sched
		}
		s.osts[i] = o
	}
	// Process slots: one per materialized process, or — streaming — a
	// fixed pool of MaxActive slots that stream jobs claim and release.
	// The pool is the flat-memory invariant: a million-job stream runs
	// in the same per-process state as a MaxActive-process cell.
	nprocs := 0
	if s.src != nil {
		nprocs = s.src.MaxActive()
	} else {
		for _, job := range c.Jobs {
			nprocs += len(job.Procs)
		}
	}
	procSlab := make([]procState, 0, nprocs)
	if s.src != nil {
		for i := 0; i < nprocs; i++ {
			procSlab = append(procSlab, procState{sim: s, stream: i, done: true})
			s.procs = append(s.procs, &procSlab[i])
			s.freeSlots = append(s.freeSlots, int32(i))
		}
	}
	for jobIdx, job := range c.Jobs {
		for _, pat := range job.Procs {
			procSlab = append(procSlab, procState{
				sim:    s,
				jobID:  job.ID,
				job:    int32(jobIdx),
				pat:    pat.Normalize(),
				stream: len(procSlab),
			})
			p := &procSlab[len(procSlab)-1]
			// Stripe placement: each file's first stripe lands on the next
			// OST in round-robin order (Lustre's default allocator), and the
			// file spans StripeCount targets from there (0 = all).
			p.stripeCount = p.pat.StripeCount
			if p.stripeCount <= 0 || p.stripeCount > c.OSTs {
				p.stripeCount = c.OSTs
			}
			p.stripeBase = p.stream % c.OSTs
			if p.pat.FileBytes > 0 {
				p.rpcsLeft = p.pat.RPCs()
				s.unfinished++
			} else {
				p.rpcsLeft = -1
				s.hasUnbounded = true
			}
			s.procs = append(s.procs, p)
			s.procsByJob[jobIdx] = append(s.procsByJob[jobIdx], p)
		}
	}
	// One outstanding-counter slab across all OSTs, and latency capacity
	// for every bounded job's known RPC total.
	outSlab := make([]int, c.OSTs*nprocs)
	for i, o := range s.osts {
		o.outstanding = outSlab[i*nprocs : (i+1)*nprocs : (i+1)*nprocs]
	}
	// Latency storage: the digest fold (flat) or the per-RPC recorder
	// (reserved up front from each bounded job's known RPC total).
	if c.StreamStats {
		s.latDig = stats.NewDigest()
		s.res.LatencyDigest = s.latDig
		if c.PerJobDigests {
			s.jobDigs = make([]stats.Digest, len(s.jobIDs))
		}
	} else {
		for jobIdx, job := range c.Jobs {
			var total int64
			for _, pat := range job.Procs {
				if pat.FileBytes > 0 {
					total += pat.Normalize().RPCs()
				}
			}
			if total > 0 {
				s.res.Latencies.Reserve(jobIdx, int(total))
			}
		}
	}
	if s.src != nil {
		s.res.StreamWaitDigest = stats.NewDigest()
		s.res.StreamJobDigest = stats.NewDigest()
	}
	s.bindCallbacks()
	return s
}

// bindCallbacks builds the per-run pre-bound event callbacks. Everything
// scheduled per-RPC goes through these; the only closures captured per
// event are the recurring controller ticks (one per period, not per RPC).
func (s *simulation) bindCallbacks() {
	s.beginFn = func(arg any, _ int64) { arg.(*procState).begin() }
	s.arriveFn = func(arg any, ost int64) { s.osts[ost].arrive(&arg.(*rpcToken).req) }
	s.serveFn = func(arg any, ost int64) { s.osts[ost].complete(arg.(*rpcToken)) }
	s.replyFn = func(arg any, _ int64) { arg.(*procState).onComplete() }
	s.wakeFn = func(arg any, gen int64) {
		o := arg.(*ostState)
		if gen != o.wakeGen {
			return // superseded: an earlier wake or a dispatch made this moot
		}
		o.wakeAt = 0
		o.kick()
	}
	s.burstFn = func(arg any, _ int64) {
		p := arg.(*procState)
		if p.done {
			return
		}
		p.burstLeft = p.burstSize()
		p.fill()
	}
	s.streamFn = func(any, int64) { s.streamArrive() }
}

// start installs policy machinery and schedules process starts.
func (s *simulation) start() {
	switch s.cfg.Policy {
	case StaticBW:
		s.installStaticRules()
	case AdapTBF:
		s.installControllers()
	case GIFT:
		s.installGIFT()
	}
	if s.src != nil {
		s.pullNext()
		if s.pendingValid {
			s.scheduleArrival()
		} else {
			s.allDone = true
		}
		return
	}
	for _, p := range s.procs {
		s.loop.AtCall(int64(p.pat.StartDelay), s.beginFn, p, 0)
	}
}

// ---- streaming (lazy job admission) ----

// pullNext advances the stream by one job into pending.
func (s *simulation) pullNext() {
	s.pendingValid = s.src.Next(&s.pending)
}

// scheduleArrival books the pending job's arrival event, clamped to now
// for jobs whose arrival time passed while every slot was occupied.
func (s *simulation) scheduleArrival() {
	at := int64(s.pending.At)
	if now := s.loop.Now(); at < now {
		at = now
	}
	s.loop.AtCall(at, s.streamFn, nil, 0)
}

// streamArrive lands the pending job: admit it into a free slot, or —
// with every slot occupied — park it at the seam until streamFinish
// frees one. Only admission pulls the next job, so the simulation holds
// exactly one un-admitted job in memory no matter how far arrivals run
// ahead of service.
func (s *simulation) streamArrive() {
	if !s.pendingValid {
		return
	}
	if len(s.freeSlots) == 0 {
		s.waiting = true
		return
	}
	s.admitPending()
	s.pullNext()
	if s.pendingValid {
		s.scheduleArrival()
	} else if s.activeJobs == 0 {
		s.allDone = true
	}
}

// admitPending claims a slot for the pending job and starts its
// transfer. The slot's procState is rebuilt in place: no allocation.
func (s *simulation) admitPending() {
	j := &s.pending
	slot := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	now := s.loop.Now()
	s.res.StreamWaitDigest.Add(time.Duration(now - int64(j.At)))
	pat := workload.Pattern{
		FileBytes:   j.Bytes,
		RPCBytes:    j.RPCBytes,
		MaxInflight: j.MaxInflight,
		Op:          j.Op,
	}
	p := s.procs[slot]
	*p = procState{
		sim:       s,
		jobID:     s.jobIDs[j.Tenant],
		job:       j.Tenant,
		pat:       pat.Normalize(),
		stream:    int(slot),
		arrivalAt: int64(j.At),
		// Stripe full width, the file's first object rotating with the
		// stream position (Lustre's round-robin allocator at stream
		// scale).
		stripeCount: len(s.osts),
		stripeBase:  int(j.Seq % int64(len(s.osts))),
	}
	p.rpcsLeft = p.pat.RPCs()
	s.activeJobs++
	p.begin()
}

// streamFinish releases a completed stream job's slot, folds its
// sojourn, and unblocks a parked arrival.
func (p *procState) streamFinish() {
	s := p.sim
	p.done = true
	s.activeJobs--
	now := s.loop.Now()
	s.res.StreamJobs++
	s.res.StreamJobDigest.Add(time.Duration(now - p.arrivalAt))
	s.freeSlots = append(s.freeSlots, int32(p.stream))
	if s.waiting && s.pendingValid {
		s.waiting = false
		s.admitPending()
		s.pullNext()
		if s.pendingValid {
			s.scheduleArrival()
		}
	}
	if !s.pendingValid && s.activeJobs == 0 {
		s.allDone = true
	}
}

// installStaticRules applies fixed priority-proportional rules on every
// OST: rate = T_i · nodes/totalNodes, never adjusted — the paper's Static
// BW baseline (workload.StaticRules, shared with the live backend).
func (s *simulation) installStaticRules() {
	rules := workload.StaticRules(s.staticJobs, s.cfg.MaxTokenRate, s.cfg.StaticTotalNodes)
	for _, o := range s.osts {
		for _, r := range rules {
			if err := o.sched.StartRule(r, 0); err != nil {
				panic(err) // job IDs are validated unique upstream
			}
		}
	}
}

// backlog reports the OST's queued requests per job into its reused
// buffer — the controller's Backlog source, one map per OST for the whole
// run instead of one per observation period.
func (o *ostState) backlog() map[string]int {
	clear(o.backlogBuf)
	o.gate.PendingJobsInto(o.backlogBuf)
	return o.backlogBuf
}

// installControllers builds one independent AdapTBF controller per OST —
// the decentralized deployment of Figure 2 — and schedules its tick every
// observation period.
func (s *simulation) installControllers() {
	for _, o := range s.osts {
		o := o
		alloc := core.New(core.Config{MaxRate: s.cfg.MaxTokenRate, Period: s.cfg.Period}, s.cfg.AllocOpts...)
		o.ctrl = controller.New(controller.Config{
			Stats:   &o.tracker,
			Nodes:   controller.NodeMapperFunc(func(jobID string) int { return max(1, s.nodesByJob[jobID]) }),
			Alloc:   alloc,
			Daemon:  rules.New(o.sched, rules.Config{}),
			Backlog: o.backlog,
			OnTick:  func(rep controller.TickReport) { s.observeTick(o, rep) },
		})
		s.loop.Every(int64(s.cfg.Period), s.cfg.Period, func() bool {
			o.ctrl.Tick(s.loop.Now())
			o.kick()
			return !s.allDone
		})
	}
}

// installGIFT builds ONE centralized controller for the whole system —
// GIFT's design point, in contrast with AdapTBF's per-target
// decentralization. Each period it walks every storage target with a
// global coupon bank: balances earned on one target are redeemable on
// another.
func (s *simulation) installGIFT() {
	ctrl := gift.New(s.cfg.Period)
	s.giftCtrl = ctrl
	daemons := make([]*rules.Daemon, len(s.osts))
	for i, o := range s.osts {
		daemons[i] = rules.New(o.sched, rules.Config{Prefix: "gift_"})
	}
	var snapBuf []jobstats.Stat
	s.loop.Every(int64(s.cfg.Period), s.cfg.Period, func() bool {
		for i, o := range s.osts {
			// Time each target's walk: under GIFT every decision runs
			// through the one central controller, so the per-epoch
			// coordination cost is the sum of these serial walks — the
			// quantity the GIFT-vs-AdapTBF scale study reports.
			walkStart := time.Now()
			pending := o.backlog()
			snapBuf = o.tracker.SnapshotAppend(snapBuf[:0])
			active := s.giftActive[:0]
			for _, st := range snapBuf {
				d := st.RPCs
				if n := int64(pending[st.JobID]); n > d {
					d = n
				}
				delete(pending, st.JobID)
				active = append(active, gift.Activity{Job: st.JobID, Demand: d})
			}
			for job, n := range pending {
				active = append(active, gift.Activity{Job: job, Demand: int64(n)})
			}
			s.giftActive = active
			allocStart := time.Now()
			allocs := ctrl.Allocate(active, s.cfg.MaxTokenRate)
			allocTime := time.Since(allocStart)
			converted := s.giftAllocs[:0]
			for _, al := range allocs {
				converted = append(converted, core.Allocation{
					Job:      core.JobID(al.Job),
					Tokens:   al.Tokens,
					Rate:     al.Rate,
					Priority: 1.0 / float64(len(allocs)), // equal: GIFT is priority-unaware
				})
			}
			s.giftAllocs = converted
			s.res.CtrlMsgs += 2
			if ops, err := daemons[i].Apply(converted, s.loop.Now()); err == nil {
				o.tracker.Clear()
				s.res.RuleOps += len(ops.Applied)
				s.res.CtrlMsgs += int64(len(ops.Applied))
			}
			s.res.AllocTimes = append(s.res.AllocTimes, allocTime)
			s.res.TickTimes = append(s.res.TickTimes, time.Since(walkStart))
			if s.mets != nil {
				s.tickCtr.Add(1)
				s.bucketG.Set(s.bucketTokensTotal())
				s.depthG.Set(float64(s.queueDepthTotal()))
			}
			if s.trace != nil {
				// The central controller's serial walk of target i, as an
				// instant: simulated walks consume no virtual time (the
				// wall-clock cost lives in TickTimes and is deliberately
				// excluded — trace bytes must be seed-deterministic).
				s.trace.Instant("gift.walk", "ctrl", obs.ControllerTID+int64(i), s.loop.Now(), map[string]any{
					"active": len(active),
					"bank":   ctrl.BankEntries(),
				})
			}
			o.kick()
		}
		return !s.allDone
	})
}

// observeTick records controller outputs into the result.
func (s *simulation) observeTick(o *ostState, rep controller.TickReport) {
	s.res.AllocTimes = append(s.res.AllocTimes, rep.AllocTime)
	s.res.TickTimes = append(s.res.TickTimes, rep.TotalTime)
	s.res.RuleOps += len(rep.Ops.Applied)
	s.res.CtrlMsgs += 2 + int64(len(rep.Ops.Applied))
	if s.trace != nil || s.mets != nil {
		s.observeEpoch(o, rep)
	}
	if !s.cfg.SampleRecords {
		return
	}
	prefix := ""
	if len(s.osts) > 1 {
		prefix = fmt.Sprintf("ost%d/", o.idx)
	}
	for _, al := range rep.Allocations {
		s.res.Records.Add(prefix+"record:"+string(al.Job), rep.Now, al.Record)
		s.res.Records.Add(prefix+"demand:"+string(al.Job), rep.Now, float64(al.Demand))
	}
}

// observeEpoch feeds one AdapTBF controller tick into the obs sinks:
// an "adaptbf.tick" instant carrying per-bucket token levels and the
// tick's borrow total, plus the epoch gauges/counters. Only
// deterministic quantities go into trace args — wall-clock tick costs
// stay out so a traced simulation remains bit-identical across runs.
func (s *simulation) observeEpoch(o *ostState, rep controller.TickReport) {
	var borrowed float64
	for _, al := range rep.Allocations {
		if al.Record < 0 {
			borrowed -= al.Record
		}
	}
	if s.mets != nil {
		s.tickCtr.Add(1)
		s.borrowG.Add(borrowed)
		s.bucketG.Set(s.bucketTokensTotal())
		s.depthG.Set(float64(s.queueDepthTotal()))
	}
	if s.trace != nil {
		now := s.loop.Now()
		buckets := make(map[string]float64)
		o.sched.BucketLevelsInto(now, buckets)
		s.trace.Instant("adaptbf.tick", "ctrl", obs.ControllerTID+int64(o.idx), now, map[string]any{
			"active":   rep.Active,
			"ops":      len(rep.Ops.Applied),
			"borrowed": borrowed,
			"buckets":  buckets,
		})
	}
}

// bucketTokensTotal sums token-bucket occupancy across every OST with a
// TBF gate.
func (s *simulation) bucketTokensTotal() float64 {
	now := s.loop.Now()
	var total float64
	for _, o := range s.osts {
		if o.sched != nil {
			total += o.sched.BucketTokens(now)
		}
	}
	return total
}

// queueDepthTotal sums the request-gate backlog across OSTs.
func (s *simulation) queueDepthTotal() int {
	var total int
	for _, o := range s.osts {
		total += o.gate.Pending()
	}
	return total
}

// finish assembles the result after the loop stops.
func (s *simulation) finish() *Result {
	s.res.Done = s.unfinished == 0 && !s.hasUnbounded
	if s.src != nil {
		// A streaming run is done when the stream is exhausted and every
		// admitted job completed (a Duration cap can cut it short).
		s.res.Done = s.allDone
	}
	if s.jobDigs != nil {
		s.res.JobLatencyDigests = make([]JobLatencyDigest, len(s.jobDigs))
		for i := range s.jobDigs {
			s.res.JobLatencyDigests[i] = JobLatencyDigest{Job: s.jobIDs[i], Digest: &s.jobDigs[i]}
		}
		sort.Slice(s.res.JobLatencyDigests, func(i, j int) bool {
			return s.res.JobLatencyDigests[i].Job < s.res.JobLatencyDigests[j].Job
		})
	}
	s.res.Elapsed = time.Duration(s.loop.Now())
	s.res.Events = s.loop.Processed()
	if s.giftCtrl != nil {
		s.res.GIFTBankEntries = s.giftCtrl.BankEntries()
		s.res.GIFTCouponsOutstanding = s.giftCtrl.OutstandingCoupons()
	}
	for _, o := range s.osts {
		served, _, busy := o.dev.Stats()
		s.res.DeviceBusy = append(s.res.DeviceBusy, busy)
		s.res.ServedRPCs += served
	}
	if s.mets != nil {
		// Request counters are derived once at the end of the run from the
		// deterministic result totals — identical numbers to per-RPC atomic
		// increments, at zero hot-path cost.
		s.mets.Counter(obs.MetricServed).Add(int64(s.res.ServedRPCs))
		s.mets.Counter(obs.MetricRejected).Add(int64(s.res.Rejected))
		s.mets.Counter(obs.MetricShed).Add(int64(s.res.Shed))
		s.mets.Counter(obs.MetricOfferedBytes).Add(s.res.OfferedBytes)
		s.mets.Counter(obs.MetricGoodputBytes).Add(s.res.GoodputBytes)
	}
	return s.res
}

// ---- client side ----

// begin starts the process at its scheduled time.
func (p *procState) begin() {
	p.started = true
	if p.pat.BurstRPCs > 0 {
		p.burstLeft = p.burstSize()
	}
	p.fill()
}

func (p *procState) burstSize() int {
	n := p.pat.BurstRPCs
	if p.rpcsLeft >= 0 && int64(n) > p.rpcsLeft {
		n = int(p.rpcsLeft)
	}
	return n
}

// canIssue reports whether another RPC may be sent right now.
func (p *procState) canIssue() bool {
	if p.done || !p.started || p.rpcsLeft == 0 {
		return false
	}
	if p.pat.BurstRPCs > 0 && p.burstLeft == 0 {
		return false
	}
	return p.inflight < p.pat.MaxInflight
}

// fill issues RPCs until the inflight window or the burst is exhausted.
func (p *procState) fill() {
	for p.canIssue() {
		p.issue()
	}
}

// issue sends one RPC toward the next OST in the stripe.
func (p *procState) issue() {
	p.inflight++
	if p.rpcsLeft > 0 {
		p.rpcsLeft--
	}
	if p.pat.BurstRPCs > 0 {
		p.burstLeft--
	}
	// Fan the file's RPCs out round-robin over its stripe targets; replies
	// fan back in through onComplete regardless of which OST served them.
	s := p.sim
	ost := (p.stripeBase + p.ostRR%p.stripeCount) % len(s.osts)
	p.ostRR++
	tok := s.getToken()
	tok.proc = p
	tok.issuedAt = s.loop.Now()
	tok.req = tbf.Request{
		JobID:    p.jobID,
		Job:      p.job,
		Op:       p.pat.Op,
		Bytes:    p.pat.RPCBytes,
		Stream:   p.stream,
		Userdata: tok,
	}
	if s.trace != nil {
		s.rpcSeq++
		tok.traceID = s.rpcSeq
		s.trace.AsyncBegin("rpc", "rpc", int64(ost), tok.traceID, tok.issuedAt,
			map[string]any{"job": p.jobID, "bytes": p.pat.RPCBytes})
	}
	s.loop.AfterCall(s.cfg.NetDelay, s.arriveFn, tok, int64(ost))
}

// onComplete handles an RPC reply.
func (p *procState) onComplete() {
	p.inflight--
	if p.rpcsLeft == 0 && p.inflight == 0 && (p.pat.BurstRPCs == 0 || p.burstLeft == 0) {
		p.finishProc()
		return
	}
	if p.pat.BurstRPCs > 0 && p.burstLeft == 0 {
		if p.inflight == 0 && p.rpcsLeft != 0 {
			// Burst fully drained: rest, then start the next one.
			p.sim.loop.AfterCall(p.pat.BurstInterval, p.sim.burstFn, p, 0)
		}
		return
	}
	p.fill()
}

// finishProc marks the process complete and, when it is the job's last,
// records the job finish time.
func (p *procState) finishProc() {
	if p.done {
		return
	}
	if p.sim.src != nil {
		p.streamFinish()
		return
	}
	p.done = true
	if p.pat.FileBytes > 0 {
		p.sim.unfinished--
	}
	for _, q := range p.sim.procsByJob[p.job] {
		if !q.done {
			return
		}
	}
	p.sim.res.FinishTimes[p.jobID] = time.Duration(p.sim.loop.Now())
	if p.sim.unfinished == 0 && !p.sim.hasUnbounded {
		p.sim.allDone = true
	}
}

// ---- server side ----

// arrive lands a request at the OST after the network delay. The
// admission seam sits here, before the request touches the tracker or
// the gate: a rejected request leaves no trace in demand accounting,
// the timeline, or the latency recorder — only in the offered/rejected
// counters — and its reply still pays the return network delay, exactly
// like a served one.
func (o *ostState) arrive(req *tbf.Request) {
	s := o.sim
	now := s.loop.Now()
	s.res.OfferedBytes += req.Bytes
	if s.trace != nil {
		req.Userdata.(*rpcToken).arriveAt = now
	}
	if o.adm != nil {
		tok := req.Userdata.(*rpcToken)
		d := o.adm.Admit(admission.Request{Job: req.JobID, Bytes: req.Bytes, Queued: o.gate.Pending()}, now)
		switch d.Action {
		case admission.Reject:
			s.res.Rejected++
			if s.trace != nil {
				s.trace.Instant("admit.reject", "admission", int64(o.idx), now, map[string]any{"job": req.JobID})
				s.trace.AsyncEnd("rpc", "rpc", int64(o.idx), tok.traceID, now+int64(s.cfg.NetDelay),
					map[string]any{"outcome": "rejected"})
			}
			s.loop.AfterCall(s.cfg.NetDelay, s.replyFn, tok.proc, 0)
			s.putToken(tok)
			return
		case admission.Enqueue:
			tok.admitDeadline = d.Deadline
		}
	}
	if s.trace != nil {
		tok := req.Userdata.(*rpcToken)
		s.trace.AsyncBegin("queue", "rpc", int64(o.idx), tok.traceID, now, nil)
	}
	o.tracker.ObserveIdx(int(req.Job), req.Bytes)
	if o.outstanding[req.Stream] == 0 {
		o.activeStreams++
	}
	o.outstanding[req.Stream]++
	o.gate.Enqueue(req, now)
	o.kick()
}

// kick advances the service loop: if the device is idle, pull the next
// eligible request from the TBF gate, or arm a wake at the next token
// deadline. At most one wake is ever armed: a miss that would fire no
// earlier than the armed wake schedules nothing, and dispatching bumps the
// wake generation so an already-queued wake for a now-busy device fizzles
// instead of firing a redundant kick.
func (o *ostState) kick() {
	if o.busy {
		return
	}
	s := o.sim
	now := s.loop.Now()
	for {
		req, wake, ok := o.gate.Dequeue(now)
		if !ok {
			if wake == tbf.InfiniteDeadline {
				return
			}
			if o.wakeAt != 0 && o.wakeAt <= wake && o.wakeAt > now {
				return // an earlier (still pending) wake already covers this
			}
			o.wakeGen++
			o.wakeAt = wake
			s.loop.AtCall(wake, s.wakeFn, o, o.wakeGen)
			return
		}
		tok := req.Userdata.(*rpcToken)
		// Lazy deadline shedding (admission.Enqueue decisions): a request
		// that waited past its queueing deadline is dropped here — never
		// served late — and its reply goes straight back to the client.
		// The loop then pulls the next candidate for the idle device.
		if tok.admitDeadline != 0 && now > tok.admitDeadline {
			s.res.Shed++
			if o.onServed != nil {
				o.onServed() // frees the SFQ dispatch slot
			}
			if n := o.outstanding[req.Stream] - 1; n >= 0 {
				o.outstanding[req.Stream] = n
				if n == 0 {
					o.activeStreams--
				}
			}
			if s.trace != nil {
				s.trace.AsyncEnd("queue", "rpc", int64(o.idx), tok.traceID, now, nil)
				s.trace.AsyncEnd("rpc", "rpc", int64(o.idx), tok.traceID, now+int64(s.cfg.NetDelay),
					map[string]any{"outcome": "shed"})
			}
			s.loop.AfterCall(s.cfg.NetDelay, s.replyFn, tok.proc, 0)
			s.putToken(tok)
			continue
		}
		if o.wakeAt != 0 {
			o.wakeGen++ // strand the armed wake; completion will re-kick
			o.wakeAt = 0
		}
		o.busy = true
		if s.trace != nil {
			tok.dispatchAt = now
			s.trace.AsyncEnd("queue", "rpc", int64(o.idx), tok.traceID, now, nil)
			if o.sfqSched != nil {
				s.trace.Instant("sfq.dispatch", "sfq", int64(o.idx), now,
					map[string]any{"slots": o.sfqSched.InService(), "depth": o.sfqSched.Depth()})
			}
		}
		st := o.dev.ServiceTime(req.Bytes, req.Stream, o.activeStreams)
		s.loop.AfterCall(st, s.serveFn, tok, int64(o.idx))
		return
	}
}

// complete finishes a request: accounts it, replies to the client, and
// pulls the next one. The token is recycled once the reply is scheduled.
func (o *ostState) complete(tok *rpcToken) {
	s := o.sim
	now := s.loop.Now()
	o.busy = false
	if o.onServed != nil {
		o.onServed() // frees the SFQ dispatch slot
	}
	job := int(tok.req.Job)
	s.res.GoodputBytes += tok.req.Bytes
	s.res.Timeline.RecordIdx(job, now, tok.req.Bytes)
	if n := o.outstanding[tok.req.Stream] - 1; n >= 0 {
		o.outstanding[tok.req.Stream] = n
		if n == 0 {
			o.activeStreams--
		}
	}
	// Client-perceived latency: issue to reply receipt — folded into the
	// digest under StreamStats (flat memory), recorded per-RPC otherwise.
	lat := time.Duration(now + int64(s.cfg.NetDelay) - tok.issuedAt)
	if s.latDig != nil {
		s.latDig.Add(lat)
		if s.jobDigs != nil {
			s.jobDigs[job].Add(lat)
		}
	} else {
		s.res.Latencies.RecordIdx(job, lat)
	}
	if s.trace != nil {
		s.trace.Span("device", "rpc", int64(o.idx), tok.dispatchAt, now, nil)
		s.trace.AsyncEnd("rpc", "rpc", int64(o.idx), tok.traceID, now+int64(s.cfg.NetDelay),
			map[string]any{"outcome": "served"})
	}
	s.loop.AfterCall(s.cfg.NetDelay, s.replyFn, tok.proc, 0)
	s.putToken(tok)
	o.kick()
}
