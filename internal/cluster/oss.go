// Package cluster implements the real-time deployment mode: object storage
// servers (OSS) and client job runners as actual goroutines exchanging
// RPCs through package transport, with one independent AdapTBF controller
// per storage target — the decentralized architecture of the paper's
// Figure 2 running on the wall clock instead of the simulator.
//
// The discrete-event simulator (package sim) remains the tool for figure
// reproduction; this package demonstrates and tests the same components —
// tbf.Scheduler, jobstats.Tracker, core.Allocator, rules.Daemon,
// controller.Controller — in a live concurrent system.
package cluster

import (
	"errors"
	"sync"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/controller"
	"adaptbf/internal/core"
	"adaptbf/internal/device"
	"adaptbf/internal/edt"
	"adaptbf/internal/jobstats"
	"adaptbf/internal/obs"
	"adaptbf/internal/rules"
	"adaptbf/internal/sfq"
	"adaptbf/internal/tbf"
	"adaptbf/internal/transport"
)

// SFQConfig selects Start-time Fair Queueing for an OSS: the server's
// request gate becomes an sfq.Scheduler instead of the TBF scheduler, so
// dispatch order follows per-flow start tags (weighted proportional
// sharing) rather than token-bucket rules. An SFQ-gated OSS has no rule
// engine and no AdapTBF controller — SFQ is the memoryless related-work
// baseline, live.
type SFQConfig struct {
	// Depth is the dispatch depth D (requests in service concurrently).
	// The single dispatcher serves one request at a time, so depths above
	// 1 only widen the reorder window. Default 1.
	Depth int
	// Weights maps a job to its flow weight. Nil (or a non-positive
	// return) means weight 1.
	Weights func(jobID string) float64
}

// EDTConfig selects Earliest Departure Time pacing for an OSS: the
// request gate becomes an edt.Scheduler — per-flow departure
// timestamps (delay = bytes/rate) instead of shared token state,
// released in global earliest-departure order exactly as the simulator
// releases them. An EDT-gated OSS has no rule engine and no AdapTBF
// controller; its rates are fixed at construction.
type EDTConfig struct {
	// Rates returns a flow's pacing rate in BYTES per second, sampled
	// once when the flow is first seen. Nil (or a non-positive return)
	// leaves the flow unpaced.
	Rates func(jobID string) float64
	// Horizon clamps how far past now a departure may be stamped
	// (Linux FQ drops beyond its horizon; this gate has no drop path,
	// so it clamps). Zero selects edt.DefaultHorizon (2 s).
	Horizon time.Duration
}

// OSSConfig parameterizes a storage server.
type OSSConfig struct {
	// Device models the backing store. Zero value means device.Default().
	Device device.Params
	// BucketDepth is the TBF bucket depth (default 3).
	BucketDepth float64
	// Speedup divides service times, accelerating demos: a Speedup of 10
	// makes the modeled device appear 10× faster in wall time. Default 1.
	Speedup float64
	// SFQ, when non-nil, gates requests through Start-time Fair Queueing
	// instead of the TBF scheduler (see SFQConfig).
	SFQ *SFQConfig
	// EDT, when non-nil, gates requests through Earliest Departure
	// Time pacing instead of the TBF scheduler (see EDTConfig).
	// Mutually exclusive with SFQ; EDT wins if both are set.
	EDT *EDTConfig
	// Admission selects the overload-protection policy in front of the
	// server (package admission). The zero value is always-admit: the
	// seam is skipped entirely. Rejected requests answer with a typed
	// transport rejection (Reply.Reject) instead of a service outcome.
	Admission admission.Config
	// Obs, when non-nil with a live sink, attaches the cell's
	// observability: per-RPC spans and controller-epoch instants into the
	// tracer (timestamped on this OSS's clock), gate lock-wait and epoch
	// metrics into the registry. Nil — the default — costs one nil check
	// per seam. Request-outcome counters (served/rejected/shed/bytes) are
	// filled by the harness from the cell result, identically for every
	// backend, so this layer records only what the harness cannot see.
	Obs *obs.CellObs
	// ObsTID is the trace track for this OSS's events — its index within
	// the cell. Only meaningful with Obs.
	ObsTID int
}

// An OSS is one object storage server hosting one storage target. It
// serves transport requests through a TBF scheduler and a device model,
// with a single dispatcher goroutine standing in for the I/O thread pool
// (the device, not the thread count, bounds throughput — as on a real
// OST).
type OSS struct {
	cfg     OSSConfig
	dev     *device.Device
	tracker jobstats.Tracker
	epoch   time.Time

	// gate is self-synchronized (see gates.go); mu covers only the
	// OSS's bookkeeping — outstanding/queued counters, admission state,
	// byte accounting, and the RPC trace sequence — so gate contention
	// is the gate's own, measured inside it, not smeared across every
	// server operation.
	gate *lockedGate
	// The scheduler behind gate, reached only under its lock: tbfSched
	// on a TBF-gated server (rules and token introspection), sfqSched
	// on an SFQ-gated one (dispatch-slot release). At most one is set;
	// both are nil under EDT.
	tbfSched *tbf.Scheduler
	sfqSched *sfq.Scheduler

	mu          sync.Mutex
	outstanding map[int]int
	adm         admission.Admitter // nil under always-admit
	queued      int                // requests currently in the gate (admission bound input)
	rpcSeq      uint64             // per-RPC trace span id source, under mu

	// Observability sinks, resolved once in NewOSS; all nil when obs is
	// off, so every instrumented seam pays one nil check.
	trace   *obs.Tracer
	tid     int64
	tickCtr *obs.Counter
	borrowG *obs.Gauge
	bucketG *obs.Gauge
	depthG  *obs.Gauge

	// Admission accounting, under mu. Offered counts every arriving
	// request's payload; goodput only served ones — rejected and shed
	// work appears in the gap, never in throughput.
	rejected     uint64
	shed         uint64
	offeredBytes int64
	goodputBytes int64

	kick chan struct{}
	done chan struct{}

	wg     sync.WaitGroup
	closed sync.Once
}

// NewOSS starts a storage server (its dispatcher goroutine runs until
// Close).
func NewOSS(cfg OSSConfig) *OSS {
	if cfg.Device.BytesPerSec == 0 {
		cfg.Device = device.Default()
	}
	if cfg.BucketDepth <= 0 {
		cfg.BucketDepth = tbf.DefaultBucketDepth
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	o := &OSS{
		cfg:         cfg,
		dev:         device.New(cfg.Device),
		epoch:       time.Now(),
		outstanding: make(map[int]int),
		kick:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	o.adm = cfg.Admission.New()
	var waitH *obs.Histogram
	if cfg.Obs != nil {
		o.trace = cfg.Obs.Tracer
		o.tid = int64(cfg.ObsTID)
		if m := cfg.Obs.Metrics; m != nil {
			waitH = m.Histogram(obs.HistGateLockWait)
			o.tickCtr = m.Counter(obs.MetricCtrlTicks)
			o.borrowG = m.Gauge(obs.GaugeBorrowed)
			o.bucketG = m.Gauge(obs.GaugeBucketTokens)
			o.depthG = m.Gauge(obs.GaugeQueueDepth)
		}
	}
	var inner seqGate
	switch {
	case cfg.EDT != nil:
		inner = edt.New(edt.Config{Rates: cfg.EDT.Rates, Horizon: int64(cfg.EDT.Horizon)})
	case cfg.SFQ != nil:
		o.sfqSched = sfq.New(cfg.SFQ.Depth, cfg.SFQ.Weights)
		inner = o.sfqSched
	default:
		o.tbfSched = tbf.NewScheduler(tbf.Config{BucketDepth: cfg.BucketDepth})
		inner = o.tbfSched
	}
	o.gate = newLockedGate(inner, waitH)
	o.wg.Add(1)
	go o.dispatch()
	return o
}

// Now reports the server's scheduler time: nanoseconds since the OSS
// started, scaled by Speedup so token rates apply to the accelerated
// clock.
func (o *OSS) Now() int64 {
	return int64(float64(time.Since(o.epoch)) * o.cfg.Speedup)
}

// Tracker exposes the job stats tracker (the controller's stats source).
func (o *OSS) Tracker() *jobstats.Tracker { return &o.tracker }

// admitted carries a request's reply path and its admission deadline
// through the gate as the tbf.Request's Userdata.
type admitted struct {
	reply    func(transport.Reply)
	deadline int64  // OSS-time admission deadline; 0 = none
	traceID  uint64 // per-RPC async span id; 0 when tracing is off
}

// Handle implements transport.Handler: admit, classify, account,
// enqueue, and wake the dispatcher. The reply is issued when the device
// finishes the request — or immediately, as a typed rejection, when the
// admission layer refuses it: a rejected request never touches the
// tracker, the gate, or the device, so it leaves no trace in demand or
// throughput accounting.
func (o *OSS) Handle(req transport.Request, reply func(transport.Reply)) {
	o.mu.Lock()
	now := o.Now()
	o.offeredBytes += req.Bytes
	var traceID uint64
	if o.trace != nil {
		o.rpcSeq++
		// Nestable async events are keyed by (category, id) within one
		// trace process, and a cell's OSSes share a tracer: salt the id
		// with the OSS's thread so lifecycles never collide across OSSes.
		traceID = uint64(o.tid)<<32 | (o.rpcSeq & 0xffffffff)
		o.trace.AsyncBegin("rpc", "rpc", o.tid, traceID, now,
			map[string]any{"job": req.JobID, "bytes": req.Bytes})
	}
	var deadline int64
	if o.adm != nil {
		d := o.adm.Admit(admission.Request{Job: req.JobID, Bytes: req.Bytes, Queued: o.queued}, now)
		switch d.Action {
		case admission.Reject:
			o.rejected++
			o.mu.Unlock()
			if o.trace != nil {
				o.trace.Instant("admit.reject", "admission", o.tid, now, map[string]any{"job": req.JobID})
				o.trace.AsyncEnd("rpc", "rpc", o.tid, traceID, now, map[string]any{"outcome": "rejected"})
			}
			reply(transport.Reply{Reject: transport.RejectRefused})
			return
		case admission.Enqueue:
			deadline = d.Deadline
		}
	}
	o.tracker.Observe(req.JobID, req.Bytes)
	r := &tbf.Request{
		JobID:    req.JobID,
		Op:       tbf.Opcode(req.Op),
		Bytes:    req.Bytes,
		Stream:   req.Stream,
		Userdata: admitted{reply: reply, deadline: deadline, traceID: traceID},
	}
	// Bookkeeping is committed under mu BEFORE the request enters the
	// gate: the gate is independently locked, so the dispatcher could
	// otherwise pop a request whose counters were never incremented.
	o.outstanding[req.Stream]++
	o.queued++
	o.mu.Unlock()
	if o.trace != nil {
		o.trace.AsyncBegin("queue", "rpc", o.tid, traceID, now, nil)
	}
	o.gate.Enqueue(r, now)
	o.wake()
}

func (o *OSS) wake() {
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

// pacingQuantum is how much modeled device time may be owed before the
// dispatcher actually sleeps. Sleeping once per request would bound
// throughput by the platform timer floor (~1 ms on many kernels), far
// below a µs-scale service time; batching the debt keeps the long-run
// device rate exact while sleeping in chunks the timer can honor.
const pacingQuantum = 2 * time.Millisecond

// dispatch is the service loop: pull the next eligible request from the
// TBF gate, charge the device's service time against a virtual
// device-free clock, reply, repeat. When no queue is eligible it sleeps
// until the earliest token deadline or the next arrival.
func (o *OSS) dispatch() {
	defer o.wg.Done()
	var deviceFree int64 // OSS-time instant the device finishes queued work
	for {
		now := o.Now()
		req, wakeAt, ok := o.gate.Dequeue(now)
		if ok {
			var streams int
			o.mu.Lock()
			o.queued--
			streams = len(o.outstanding)
			o.mu.Unlock()

			ad := req.Userdata.(admitted)
			if o.trace != nil {
				o.trace.AsyncEnd("queue", "rpc", o.tid, ad.traceID, now, nil)
				if o.sfqSched != nil {
					var slots, depth int
					o.gate.withLock(func() { slots, depth = o.sfqSched.InService(), o.sfqSched.Depth() })
					o.trace.Instant("sfq.dispatch", "sfq", o.tid, now,
						map[string]any{"slots": slots, "depth": depth})
				}
			}
			// Lazy deadline shedding (admission.Enqueue decisions): a
			// request that waited past its queueing deadline is dropped
			// here with a typed rejection — never served late.
			if ad.deadline != 0 && now > ad.deadline {
				o.mu.Lock()
				o.shed++
				if n := o.outstanding[req.Stream] - 1; n > 0 {
					o.outstanding[req.Stream] = n
				} else {
					delete(o.outstanding, req.Stream)
				}
				o.mu.Unlock()
				o.releaseSlot()
				if o.trace != nil {
					o.trace.AsyncEnd("rpc", "rpc", o.tid, ad.traceID, o.Now(),
						map[string]any{"outcome": "shed"})
				}
				ad.reply(transport.Reply{Reject: transport.RejectShed})
				continue
			}
			st := o.dev.ServiceTime(req.Bytes, req.Stream, streams)
			if deviceFree < now {
				deviceFree = now
			}
			deviceFree += int64(st)
			if debt := time.Duration(float64(deviceFree-o.Now()) / o.cfg.Speedup); debt > pacingQuantum {
				if !o.sleep(debt) {
					return
				}
			}
			o.mu.Lock()
			o.goodputBytes += req.Bytes
			if n := o.outstanding[req.Stream] - 1; n > 0 {
				o.outstanding[req.Stream] = n
			} else {
				delete(o.outstanding, req.Stream)
			}
			o.mu.Unlock()
			o.releaseSlot()
			if o.trace != nil {
				// The device phase is sequential by construction (one
				// dispatcher), so a complete span nests cleanly; the RPC
				// span closes when the reply is issued.
				end := o.Now()
				o.trace.Span("device", "rpc", o.tid, now, end, nil)
				o.trace.AsyncEnd("rpc", "rpc", o.tid, ad.traceID, end,
					map[string]any{"outcome": "served"})
			}
			ad.reply(transport.Reply{Bytes: req.Bytes})
			continue
		}

		if wakeAt == tbf.InfiniteDeadline {
			select {
			case <-o.kick:
			case <-o.done:
				return
			}
			continue
		}
		delay := time.Duration(float64(wakeAt-o.Now()) / o.cfg.Speedup)
		if delay < 0 {
			delay = 0
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-o.kick:
			timer.Stop()
		case <-o.done:
			timer.Stop()
			return
		}
	}
}

// releaseSlot frees the SFQ dispatch slot of a request that left
// the dispatcher; a no-op on other gates.
func (o *OSS) releaseSlot() {
	if o.sfqSched != nil {
		o.gate.withLock(o.sfqSched.Complete)
	}
}

// sleep waits for d or until the OSS closes, reporting false on close.
func (o *OSS) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-o.done:
		return false
	}
}

// Close stops the dispatcher. In-queue requests are not replied to;
// clients see their connections close.
func (o *OSS) Close() {
	o.closed.Do(func() { close(o.done) })
	o.wg.Wait()
}

// DeviceStats reports the backing device's lifetime counters: requests
// served and total (OSS-time) busy duration. The device is owned by the
// dispatcher goroutine, so DeviceStats is only safe after Close has
// returned — which is when the matrix harness's live backend reads it.
func (o *OSS) DeviceStats() (served uint64, busy time.Duration) {
	served, _, busy = o.dev.Stats()
	return served, busy
}

// AdmissionStats reports the admission layer's lifetime counters:
// requests rejected on arrival, requests shed past their queueing
// deadline, and the offered/goodput byte totals. All zero under
// always-admit except offered/goodput, which account every request.
func (o *OSS) AdmissionStats() (rejected, shed uint64, offeredBytes, goodputBytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rejected, o.shed, o.offeredBytes, o.goodputBytes
}

// PendingJobs reports queued requests per job (the controller's backlog
// source). The gate is self-synchronized, so no OSS lock is taken.
func (o *OSS) PendingJobs() map[string]int {
	return o.gate.PendingJobs()
}

// wakeEngine decorates a rule engine with a dispatcher wake after every
// mutation, since a rate change can make a queue immediately eligible.
type wakeEngine struct {
	inner rules.Engine
	wake  func()
}

func (e wakeEngine) Rules() []tbf.Rule { return e.inner.Rules() }

func (e wakeEngine) StartRule(r tbf.Rule, now int64) error {
	err := e.inner.StartRule(r, now)
	e.wake()
	return err
}

func (e wakeEngine) ChangeRule(name string, rate float64, order int, now int64) error {
	err := e.inner.ChangeRule(name, rate, order, now)
	e.wake()
	return err
}

func (e wakeEngine) StopRule(name string, now int64) error {
	err := e.inner.StopRule(name, now)
	e.wake()
	return err
}

// ErrNoRuleEngine is returned by rule operations on an OSS whose gate
// has no token rules (SFQ dispatches by start tag, EDT by departure
// timestamp), so there is nothing for a rule to act on.
var ErrNoRuleEngine = errors.New("cluster: this OSS's gate has no TBF rule engine (SFQ and EDT dispatch without token rules)")

// noRuleEngine is the Engine of a ruleless (SFQ- or EDT-gated) OSS:
// every mutation fails with ErrNoRuleEngine instead of silently
// disappearing.
type noRuleEngine struct{}

func (noRuleEngine) Rules() []tbf.Rule                            { return nil }
func (noRuleEngine) StartRule(tbf.Rule, int64) error              { return ErrNoRuleEngine }
func (noRuleEngine) ChangeRule(string, float64, int, int64) error { return ErrNoRuleEngine }
func (noRuleEngine) StopRule(string, int64) error                 { return ErrNoRuleEngine }

// Engine returns a thread-safe rules.Engine over this OSS's TBF
// scheduler, for the rule daemon or for installing
// static/administrative rules. On an SFQ- or EDT-gated OSS every
// mutation fails with ErrNoRuleEngine.
func (o *OSS) Engine() rules.Engine {
	if o.tbfSched == nil {
		return noRuleEngine{}
	}
	return wakeEngine{inner: lockedTBFEngine{g: o.gate, sched: o.tbfSched}, wake: o.wake}
}

// observeTick feeds one AdapTBF controller tick into the obs sinks —
// the live twin of the simulator's epoch observation, with the same
// "adaptbf.tick" instant shape (active jobs, applied ops, borrow total,
// per-bucket token levels) so traces from either backend read alike.
func (o *OSS) observeTick(rep controller.TickReport) {
	var borrowed float64
	for _, al := range rep.Allocations {
		if al.Record < 0 {
			borrowed -= al.Record
		}
	}
	var buckets map[string]float64
	if o.trace != nil {
		buckets = make(map[string]float64)
	}
	var tokens float64
	if o.tbfSched != nil {
		o.gate.withLock(func() {
			tokens = o.tbfSched.BucketTokens(rep.Now)
			if buckets != nil {
				o.tbfSched.BucketLevelsInto(rep.Now, buckets)
			}
		})
	}
	o.mu.Lock()
	depth := o.queued
	o.mu.Unlock()
	if o.tickCtr != nil {
		o.tickCtr.Add(1)
		o.borrowG.Add(borrowed)
		o.bucketG.Set(tokens)
		o.depthG.Set(float64(depth))
	}
	if o.trace != nil {
		o.trace.Instant("adaptbf.tick", "ctrl", obs.ControllerTID+o.tid, rep.Now, map[string]any{
			"active":   rep.Active,
			"ops":      len(rep.Ops.Applied),
			"borrowed": borrowed,
			"buckets":  buckets,
		})
	}
}

// NewController assembles this OSS's AdapTBF controller: stats from the
// local tracker, backlog from the local scheduler, rules applied through
// the local engine — no information leaves the storage server, which is
// the paper's decentralization property. Run it with go ctrl.Run(ctx).
func (o *OSS) NewController(nodes controller.NodeMapper, maxRate float64, period time.Duration, opts ...core.Option) *controller.Controller {
	if o.tbfSched == nil {
		panic("cluster: an SFQ- or EDT-gated OSS has no TBF rules for a controller to drive")
	}
	cfg := controller.Config{
		Stats:  &o.tracker,
		Nodes:  nodes,
		Alloc:  core.New(core.Config{MaxRate: maxRate, Period: period}, opts...),
		Daemon: rules.New(o.Engine(), rules.Config{}),
		// period is Δt in (possibly accelerated) OSS time; tick faster on
		// the wall clock by the same factor.
		TickEvery: time.Duration(float64(period) / o.cfg.Speedup),
		Backlog:   o.PendingJobs,
		Clock:     o.Now,
	}
	if o.trace != nil || o.tickCtr != nil {
		cfg.OnTick = o.observeTick
	}
	return controller.New(cfg)
}
