package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/metrics"
	"adaptbf/internal/obs"
	"adaptbf/internal/sim"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// liveDefaultBucketDepth absorbs wall-clock timer jitter (see
// ClusterBackend.BucketDepth).
const liveDefaultBucketDepth = 16

// A launcher stands one live cell's cluster.Nodes up on some substrate.
// runLiveCell drives it; the two live backends differ only in the
// launcher they hand it — nodes in this process (ClusterBackend) or
// adaptbf-node processes (RemoteBackend).
type launcher interface {
	// start launches the GIFT coordinator when coord is non-nil, then
	// one OSS node per config, each linked to the coordinator.
	start(coord *cluster.NodeConfig, osses []cluster.NodeConfig) error
	// dial opens a client connection to OSS node i.
	dial(i int) transport.Caller
	// injectFaults starts the substrate's process faults for a cell
	// bounded by wallCap, tracing them on cellObs (nil when off), and
	// returns the idempotent function that stops them.
	injectFaults(wallCap time.Duration, cellObs *obs.CellObs) (stop func())
	// stop drains the OSS nodes, then the coordinator, and returns their
	// final stats; a node that reported none contributes zero stats.
	stop() (osses []cluster.NodeStats, coord cluster.NodeStats)
	// kill tears down whatever still runs without draining; a no-op
	// after stop.
	kill()
}

// A liveCell is what a live backend hands runLiveCell: its
// node knobs, its job-runner RPC policy, and its launcher.
type liveCell struct {
	device      device.Params
	speedup     float64
	bucketDepth float64
	tbfShards   int
	// runner is the template every job runner copies: its per-RPC
	// timeout and retry policy.
	runner cluster.JobRunner
	launch launcher
}

// liveRecorder assembles simulator-shaped metrics from concurrent live
// RPC completions. One per cell; the mutex serializes observers from
// every runner goroutine.
type liveRecorder struct {
	mu        sync.Mutex
	epoch     time.Time
	speedup   float64
	timeline  *metrics.Timeline
	latencies *metrics.LatencyRecorder
}

// now reports OSS time since the cell epoch.
func (r *liveRecorder) now() time.Duration {
	return time.Duration(float64(time.Since(r.epoch)) * r.speedup)
}

// observer returns the JobRunner.Observe hook for one job.
func (r *liveRecorder) observer(jobID string) func(bytes int64, latency time.Duration) {
	idx := r.timeline.JobIndex(jobID)
	lidx := r.latencies.JobIndex(jobID)
	return func(bytes int64, latency time.Duration) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.timeline.RecordIdx(idx, int64(r.now()), bytes)
		r.latencies.RecordIdx(lidx, time.Duration(float64(latency)*r.speedup))
	}
}

// runLiveCell executes one cell on live cluster.Nodes: it derives every
// node's config from the spec, has the launcher start them, drives the
// scenario's jobs as concurrent RPC traffic, then drains the nodes and
// folds their final stats and observability into a simulator-shaped
// outcome. Both live backends run every cell through here.
//
// A cell ends when every bounded job finishes, when the matrix Duration
// elapses in OSS time (Done stays false, like the simulator hitting its
// cap — this is also how unbounded workloads are bounded), or when ctx
// is canceled (the cell fails with ctx.Err()).
func runLiveCell(ctx context.Context, spec CellSpec, lc liveCell) (CellOutcome, error) {
	if err := ctx.Err(); err != nil {
		return CellOutcome{}, err
	}
	policy := spec.Cell.Policy.Flag()
	if policy == "" {
		return CellOutcome{}, fmt.Errorf("harness: policy %v has no live implementation (supported: No BW, Static BW, AdapTBF, SFQ(D), GIFT, EDT)", spec.Cell.Policy)
	}
	if spec.Scenario.Jobs == nil {
		return CellOutcome{}, fmt.Errorf("harness: live backends cannot run streaming scenario %s; use -backend sim", spec.Cell.Scenario)
	}
	if spec.RecordDir != "" {
		return CellOutcome{}, fmt.Errorf("harness: trace recording needs the deterministic sim backend")
	}
	jobs := spec.Scenario.Jobs(spec.Cell.Params())
	if len(jobs) == 0 {
		return CellOutcome{}, fmt.Errorf("harness: scenario %s produced no jobs", spec.Cell.Scenario)
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return CellOutcome{}, err
		}
	}
	speedup := lc.speedup
	if speedup <= 0 {
		speedup = 1
	}
	depth := lc.bucketDepth
	if depth <= 0 {
		depth = liveDefaultBucketDepth
	}
	dev := lc.device
	if dev == (device.Params{}) {
		dev = device.Default()
	}
	scaleWorkloadTimes(jobs, speedup)

	// Every node's config. Faults sit on the server side of every
	// connection, seeded per cell and per node: connection 0 is the GIFT
	// coordinator, 1+i OSS i.
	nodes := make(map[string]int, len(jobs))
	for _, j := range jobs {
		nodes[j.ID] = j.Nodes
	}
	var coord *cluster.NodeConfig
	if spec.Cell.Policy == sim.GIFT {
		coord = &cluster.NodeConfig{
			Role:      "coord",
			Policy:    policy,
			MaxRate:   spec.MaxTokenRate,
			Period:    spec.Period,
			Fault:     spec.Faults.Net,
			FaultSeed: faultSeed(spec.Cell.Seed, 0),
		}
	}
	osses := make([]cluster.NodeConfig, spec.Cell.OSSes)
	for i := range osses {
		d := dev
		if i == 0 && spec.Faults.StragglerFactor > 1 {
			// The straggler mode: the first OSS's device runs k× slower —
			// lower streaming rate, higher per-RPC costs — the slow-node
			// scenario the borrowing policies are supposed to route around.
			k := spec.Faults.StragglerFactor
			d.BytesPerSec /= k
			d.PerRPCOverhead = time.Duration(float64(d.PerRPCOverhead) * k)
			d.ConcurrencyPenalty = time.Duration(float64(d.ConcurrencyPenalty) * k)
		}
		osses[i] = cluster.NodeConfig{
			Role:      "oss",
			OSS:       cluster.OSSConfig{Device: d, BucketDepth: depth, Speedup: speedup, TBFShards: lc.tbfShards},
			Policy:    policy,
			MaxRate:   spec.MaxTokenRate,
			Period:    spec.Period,
			SFQDepth:  spec.SFQDepth,
			Nodes:     nodes,
			Admission: spec.Admission,
			Fault:     spec.Faults.Net,
			FaultSeed: faultSeed(spec.Cell.Seed, 1+i),
			Obs:       spec.Obs,
		}
	}
	defer lc.launch.kill()
	if err := lc.launch.start(coord, osses); err != nil {
		return CellOutcome{}, err
	}

	// The cell clock starts once the nodes are up: the recorder and any
	// harness-side trace instants (crash, restart) share one epoch.
	// Node-side spans ride each node's own OSS clock and are folded in at
	// teardown.
	rec := &liveRecorder{
		epoch:     time.Now(),
		speedup:   speedup,
		timeline:  metrics.NewTimeline(spec.Period),
		latencies: &metrics.LatencyRecorder{},
	}
	var cellObs *obs.CellObs
	if spec.Obs {
		cellObs = &obs.CellObs{
			Tracer:  obs.NewTracer(func() int64 { return int64(rec.now()) }),
			Metrics: obs.NewRegistry(),
		}
	}

	// The matrix Duration is OSS time; the wall-clock bound divides out
	// the speedup. Hitting it mirrors the simulator's duration cap: the
	// cell completes with Done=false rather than failing.
	wallCap := time.Duration(float64(spec.Duration) / speedup)
	stopFaults := lc.launch.injectFaults(wallCap, cellObs)
	defer stopFaults()
	runCtx, cancelRun := context.WithTimeout(ctx, wallCap)
	defer cancelRun()

	// Intern every job's recorder indices before any runner starts:
	// observer construction mutates the recorders' intern tables, which
	// must not race with an earlier job's in-flight observations.
	observers := make([]func(bytes int64, latency time.Duration), len(jobs))
	for ji, job := range jobs {
		observers[ji] = rec.observer(job.ID)
	}
	outcomes := make([]liveJobOutcome, len(jobs))
	clients := make([]transport.Caller, 0, len(jobs)*len(osses))
	closeClients := func() {
		for _, c := range clients {
			c.Close()
		}
		clients = nil
	}
	defer closeClients()
	var wg sync.WaitGroup
	for ji, job := range jobs {
		targets := make([]transport.Caller, len(osses))
		for i := range targets {
			targets[i] = lc.launch.dial(i)
		}
		clients = append(clients, targets...)
		runner := lc.runner
		runner.Job, runner.Targets, runner.Observe = job, targets, observers[ji]
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := runner.Run(runCtx)
			outcomes[ji] = liveJobOutcome{stats: stats, err: err, finishedAt: rec.now()}
		}()
	}
	wg.Wait()
	elapsed := rec.now()
	cancelRun()
	stopFaults()

	// A cancel from above (the run's ctx or the per-cell timeout) fails
	// the cell; our own duration cap does not.
	if err := ctx.Err(); err != nil {
		return CellOutcome{}, err
	}
	res, err := foldLiveResult(spec, jobs, outcomes, rec, elapsed)
	if err != nil {
		return CellOutcome{}, err
	}

	// Harness-side transport resilience: the runners' redialers and
	// retry loops live on this side of the wire, so their counters fold
	// here. Node-side counters (a GIFT agent's coordinator link) arrive
	// in the obs drain below.
	if cellObs != nil {
		var redials, retried int64
		for _, c := range clients {
			if rd, ok := c.(*transport.Redialer); ok {
				st := rd.Stats()
				if st.Dials > 1 {
					redials += st.Dials - 1
				}
				retried += st.Retries
			}
		}
		for _, jo := range outcomes {
			retried += jo.stats.Retries
		}
		cellObs.Metrics.Counter(obs.MetricRedials).Add(redials)
		cellObs.Metrics.Counter(obs.MetricRetries).Add(retried)
	}
	// A node's graceful drain waits for its open connections: close the
	// job connections first, or every teardown waits out the bound.
	closeClients()

	// Teardown: drain every node's obs (spans and metrics live in the
	// node, and stopping it ends them), then stop the nodes and fold
	// their final snapshots — device counters and GIFT accounting exist
	// only once a node has stopped.
	var nodeSnap obs.Snapshot
	if cellObs != nil {
		for i := range osses {
			if d, ok := drainNodeObs(lc.launch.dial(i), i); ok {
				cellObs.Tracer.Append(d.Events)
				nodeSnap.Merge(d.Snapshot)
			}
		}
	}
	ossStats, coordStats := lc.launch.stop()
	for _, st := range ossStats {
		res.DeviceBusy = append(res.DeviceBusy, time.Duration(st.BusySeconds*float64(time.Second)))
		// GIFT coordination cost, folded the way the simulator counts it:
		// TickTimes holds one entry per target walk per epoch (here the
		// wall-clock coordinator round-trip, deliberately unscaled by
		// Speedup), CtrlMsgs/RuleOps the deterministic counters.
		res.TickTimes = append(res.TickTimes, st.WalkTimes...)
		res.RuleOps += st.RuleOps
		res.CtrlMsgs += st.CtrlMsgs
	}
	res.GIFTBankEntries = coordStats.BankEntries
	res.GIFTCouponsOutstanding = coordStats.CouponsOutstanding
	if cellObs != nil {
		fillOutcomeCounters(cellObs.Metrics, res)
	}
	out := outcomeOf(res, spec.PerJobDigests)
	attachObs(&out, cellObs)
	if out.Obs != nil {
		out.Obs.Merge(nodeSnap)
	}
	return out, nil
}

// A liveJobOutcome is one job's end state on a wall-clock backend.
type liveJobOutcome struct {
	stats      cluster.JobStats
	err        error
	finishedAt time.Duration // OSS time; valid when err == nil
}

// scaleWorkloadTimes divides workload time parameters by the clock
// acceleration. They are OSS time, but JobRunner sleeps them on the raw
// wall clock: scaling makes an accelerated cell run the same OSS-time
// workload the simulator runs (otherwise a calibration pairing would
// partly measure the -speedup knob, not the substrate). Patterns are
// copied in place — Scenario.Jobs may share slices.
func scaleWorkloadTimes(jobs []workload.Job, speedup float64) {
	if speedup == 1 {
		return
	}
	scale := func(d time.Duration) time.Duration {
		if d <= 0 {
			return d
		}
		if s := time.Duration(float64(d) / speedup); s > 0 {
			return s
		}
		return 1 // keep positive so Pattern validation semantics hold
	}
	for ji := range jobs {
		procs := append([]workload.Pattern(nil), jobs[ji].Procs...)
		for pi := range procs {
			procs[pi].StartDelay = scale(procs[pi].StartDelay)
			procs[pi].BurstInterval = scale(procs[pi].BurstInterval)
		}
		jobs[ji].Procs = procs
	}
}

// foldLiveResult turns per-job outcomes into the simulator-shaped
// result: Done, finish times, and cancellation vs failure.
func foldLiveResult(spec CellSpec, jobs []workload.Job, outcomes []liveJobOutcome, rec *liveRecorder, elapsed time.Duration) (*sim.Result, error) {
	res := &sim.Result{
		Policy:      spec.Cell.Policy,
		Timeline:    rec.timeline,
		Latencies:   rec.latencies,
		FinishTimes: make(map[string]time.Duration, len(jobs)),
		Elapsed:     elapsed,
		Done:        true,
	}
	var firstErr error
	for i, jo := range outcomes {
		res.ServedRPCs += uint64(jo.stats.RPCs)
		res.Rejected += uint64(jo.stats.Rejected)
		res.Shed += uint64(jo.stats.Shed)
		res.OfferedBytes += jo.stats.OfferedBytes
		res.GoodputBytes += jo.stats.Bytes
		switch {
		case jo.err == nil:
			if jobs[i].TotalBytes() > 0 {
				res.FinishTimes[jobs[i].ID] = jo.finishedAt
			} else {
				res.Done = false // unbounded job: ran to the duration cap
			}
		case errors.Is(jo.err, context.DeadlineExceeded) || errors.Is(jo.err, context.Canceled):
			res.Done = false // duration cap expired under this job
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("job %s: %w", jobs[i].ID, jo.err)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// drainNodeObs pulls one node's accumulated spans and cumulative metrics
// snapshot over c (opcode 0xF7), then closes c. Each node has its own
// tracer, with trace thread ids and span ids scoped to itself; events
// are relabeled onto the cell's per-node threads before the caller
// folds them. Best-effort: a node that crashed and never restarted took
// its spans down with it, exactly like a real process.
func drainNodeObs(c transport.Caller, node int) (cluster.ObsDrain, bool) {
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.CallCtx(ctx, transport.Request{Op: cluster.OpObsDrain})
	if err != nil {
		return cluster.ObsDrain{}, false
	}
	var d cluster.ObsDrain
	if err := json.Unmarshal(rep.Payload, &d); err != nil {
		return cluster.ObsDrain{}, false
	}
	for i := range d.Events {
		// Data spans move to thread `node`, control spans to
		// ControllerTID+node; async ids get the node in their high bits
		// (the node's own OSS runs at tid 0, leaving them clear).
		d.Events[i].TID += int64(node)
		if d.Events[i].ID != 0 {
			d.Events[i].ID |= uint64(node) << 32
		}
	}
	return d, true
}
