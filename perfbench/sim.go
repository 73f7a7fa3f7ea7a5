package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptbf/internal/harness"
	"adaptbf/internal/sim"
	"adaptbf/internal/workgen"
)

// goldenGridFingerprint is the golden matrix fingerprint of the default
// acceptance grid at seed 1 (the constant internal/harness pins).
const goldenGridFingerprint = "325620e1af144743d8c8ef9a9de8631da6199dd341203804820a78e64c41ba35"

// setupRepeats is how many times each workload builds its fixture; the
// median is reported, so one slow build does not move setup_s.
const setupRepeats = 21

// streamSlice is how many stream jobs one sim-stream latency sample
// covers: ~400 samples per cell, so a run supports a p99.
const streamSlice = 100

// gridMatrix is the golden grid at one seed: DefaultScenarios × five
// policies × scale 64 × OSS {1, 2} — 30 cells.
func gridMatrix(seed int64) harness.Matrix {
	return harness.Matrix{
		Scenarios: harness.DefaultScenarios(),
		Policies:  []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ, sim.GIFT},
		Scales:    []int64{64},
		OSSes:     []int{1, 2},
		Seeds:     []int64{seed},
		Duration:  30 * time.Minute,
	}
}

// streamMatrix is one poisson-mix cell at scale 1 on 2 OSSes under
// AdapTBF, with the scenario's stream wrapped by wrap.
func streamMatrix(seed int64, scale int64, wrap func(workgen.Stream) workgen.Stream) harness.Matrix {
	sc := harness.PoissonMixScenario()
	open := sc.Stream
	sc.Stream = func(p harness.CellParams) (workgen.Stream, error) {
		s, err := open(p)
		if err != nil {
			return nil, err
		}
		return wrap(s), nil
	}
	return harness.Matrix{
		Scenarios: []harness.Scenario{sc},
		Policies:  []sim.Policy{sim.AdapTBF},
		Scales:    []int64{scale},
		OSSes:     []int{2},
		Seeds:     []int64{seed},
		Duration:  sim.MaxDuration,
	}
}

// A timedBackend runs cells on the sim backend and times each one;
// when rec is set it also records a sim.cell span under the current
// harness.run span.
type timedBackend struct {
	inner *harness.SimBackend
	rec   *recorder
	run   atomic.Uint64 // span id of the harness.Run call in progress
	cell  atomic.Uint64 // span id of the latest cell (sequential runs only)

	mu     sync.Mutex
	cellUS []float64
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) RunCell(ctx context.Context, spec harness.CellSpec) (harness.CellOutcome, error) {
	var id uint64
	if b.rec != nil {
		id = b.rec.newID()
		b.cell.Store(id)
	}
	start := time.Now()
	out, err := b.inner.RunCell(ctx, spec)
	took := time.Since(start)
	if b.rec != nil {
		end := b.rec.now()
		b.rec.add(span{id: id, parent: b.run.Load(), req: uint64(spec.Cell.Index), layer: layerSim,
			name: "sim.cell", tid: int64(spec.Cell.Index), start: end - int64(took), end: end})
	}
	b.mu.Lock()
	b.cellUS = append(b.cellUS, float64(took)/1e3)
	b.mu.Unlock()
	return out, err
}

// runPass runs one harness.Run over m and returns its result and wall
// time. With a tracing backend it records the harness.run span.
func runPass(ctx context.Context, m harness.Matrix, tb *timedBackend, pass int) (*harness.MatrixResult, time.Duration, error) {
	opts := []harness.RunOption{harness.WithWorkers(0)} // 0 = one worker per CPU
	var id uint64
	if tb != nil {
		opts = append(opts, harness.WithBackend(tb))
		if tb.rec != nil {
			id = tb.rec.newID()
			tb.run.Store(id)
		}
	}
	start := time.Now()
	res, err := harness.Run(ctx, m, opts...)
	d := time.Since(start)
	if tb != nil && tb.rec != nil {
		end := tb.rec.now()
		tb.rec.add(span{id: id, req: uint64(pass), layer: layerHarness, name: "harness.run",
			tid: -1, start: end - int64(d), end: end})
	}
	if err != nil {
		return nil, 0, err
	}
	return res, d, nil
}

// simLayerTotals accumulates the per-layer counts the simulator reports
// in each cell's Result.
type simLayerTotals struct {
	events, rpcs, ruleOps, ctrlMsgs int64
	tickUS, allocUS                 []float64
}

func (t *simLayerTotals) add(res *harness.MatrixResult) {
	for _, cr := range res.Cells {
		r := cr.Result
		t.events += int64(r.Events)
		t.rpcs += int64(r.ServedRPCs)
		t.ruleOps += int64(r.RuleOps)
		t.ctrlMsgs += r.CtrlMsgs
		for _, d := range r.TickTimes {
			t.tickUS = append(t.tickUS, float64(d)/1e3)
		}
		for _, d := range r.AllocTimes {
			t.allocUS = append(t.allocUS, float64(d)/1e3)
		}
	}
}

// put stores the totals as per-layer metrics, counts per pass.
func (t *simLayerTotals) put(m map[string]float64, passes int, wall time.Duration) {
	n := float64(max(passes, 1))
	m["des.events"] = float64(t.events) / n
	m["des.events_per_s"] = float64(t.events) / wall.Seconds()
	m["sim.rpcs"] = float64(t.rpcs) / n
	m["rules.ops"] = float64(t.ruleOps) / n
	m["gift.ctrl_msgs"] = float64(t.ctrlMsgs) / n
	ticks, allocs := sortedCopy(t.tickUS), sortedCopy(t.allocUS)
	m["controller.tick_us.p50"] = percentile(ticks, 0.5)
	m["controller.tick_us.p99"] = percentile(ticks, 0.99)
	m["core.alloc_us.p50"] = percentile(allocs, 0.5)
}

// simGoodputFairness derives goodput (served ÷ offered bytes) and the
// mean per-cell node-weighted Jain index over each job's (or stream
// tenant's) bandwidth from one pass's results.
func simGoodputFairness(res *harness.MatrixResult, scenarios []harness.Scenario, tenants []workgen.Tenant) (goodput, jain float64) {
	byName := make(map[string]harness.Scenario)
	for _, sc := range scenarios {
		byName[sc.Name] = sc
	}
	var offered, served int64
	var jainSum float64
	for _, cr := range res.Cells {
		r := cr.Result
		offered += r.OfferedBytes
		served += r.GoodputBytes
		var bw []float64
		var nodes []int
		if sc := byName[cr.Cell.Scenario]; sc.Jobs != nil {
			for _, j := range sc.Jobs(cr.Cell.Params()) {
				end := r.Elapsed
				if f, ok := r.FinishTimes[j.ID]; ok && f > 0 {
					end = f
				}
				bw = append(bw, float64(r.Timeline.TotalBytes(j.ID))/end.Seconds())
				nodes = append(nodes, j.Nodes)
			}
		} else {
			for _, t := range tenants {
				bw = append(bw, float64(r.Timeline.TotalBytes(t.ID))/r.Elapsed.Seconds())
				nodes = append(nodes, t.Nodes)
			}
		}
		jainSum += nodeWeightedJain(bw, nodes)
	}
	goodput = 100
	if offered > 0 {
		goodput = 100 * float64(served) / float64(offered)
	}
	return goodput, jainSum / float64(len(res.Cells))
}

// runSimGrid measures the golden grid back to back. An operation is one
// cell; throughput is a pass's cells over the fast-quartile pass time,
// latency the wall time of one cell.
func runSimGrid(ctx context.Context, e *env, rep *report) error {
	want := ""
	if e.seed == 1 {
		want = goldenGridFingerprint
	}
	if e.breakCheck {
		want = "broken-" + want
	}
	checkFP := func(fp string) {
		if want == "" {
			want = fp // any other seed: every pass must match the first
		}
		rep.check(fp == want, "sim-grid fingerprint %s, want %s", fp, want)
	}

	var first *harness.MatrixResult
	setup, err := medianSetup(setupRepeats, func(bool) error {
		res, _, err := runPass(ctx, gridMatrix(e.seed), nil, 0)
		if err == nil {
			checkFP(res.Fingerprint())
			first = res
		}
		return err
	})
	if err != nil {
		return err
	}
	m := gridMatrix(e.seed)
	cellsPerPass := int64(len(first.Cells))

	// passes runs grid passes for d and returns their wall times.
	passes := func(d time.Duration, tb *timedBackend, totals *simLayerTotals) ([]float64, error) {
		var secs []float64
		for end := time.Now().Add(d); time.Now().Before(end); {
			res, took, err := runPass(ctx, m, tb, len(secs))
			if err != nil {
				return nil, err
			}
			secs = append(secs, took.Seconds())
			checkFP(res.Fingerprint())
			if totals != nil {
				totals.add(res)
			}
		}
		return secs, nil
	}

	if !e.trace {
		tb := &timedBackend{inner: harness.NewSimBackend()}
		secs, err := passes(e.seconds, tb, nil)
		if err != nil {
			return err
		}
		rep.attempted = int64(len(secs)) * cellsPerPass
		rep.metrics["setup_s"] = setup
		rep.metrics["ops_per_s"] = float64(cellsPerPass) / percentile(sortedCopy(secs), fastQuartile)
		putCellLatency(rep, tb.cellUS)
		rep.metrics["goodput_pct"], rep.metrics["fairness_jain"] = simGoodputFairness(first, m.Scenarios, nil)
		return nil
	}

	// Traced run: half untraced for process costs and the overhead
	// baseline, half traced.
	half := e.seconds / 2
	p0 := readProc()
	timed := &timedBackend{inner: harness.NewSimBackend()}
	plain, err := passes(half, timed, nil)
	if err != nil {
		return err
	}
	p1 := readProc()
	cells := int64(len(plain)) * cellsPerPass
	putProcCosts(rep.metrics, p0, p1, cells, 0, 0)
	putCellLatency(rep, timed.cellUS)

	tb := &timedBackend{inner: harness.NewSimBackend(), rec: newRecorder()}
	var totals simLayerTotals
	traced, err := passes(half, tb, &totals)
	if err != nil {
		return err
	}
	rep.attempted = cells + int64(len(traced))*cellsPerPass
	wall := time.Duration(sum(traced) * float64(time.Second))
	totals.put(rep.metrics, len(traced), wall)
	cellUS := sortedCopy(tb.cellUS)
	rep.metrics["harness.run_ms"] = percentile(sortedCopy(traced), 0.5) * 1e3
	rep.metrics["sim.cell_us.p50"] = percentile(cellUS, 0.5)
	rep.metrics["sim.cell_us.max"] = cellUS[len(cellUS)-1]
	plainRate := float64(len(plain)) / sum(plain)
	rep.metrics["trace.overhead_pct"] = 100 * (plainRate - float64(len(traced))/sum(traced)) / plainRate
	return putSelfTimes(rep.metrics, e, tb.rec)
}

// putCellLatency records the per-cell wall times as the latency.
func putCellLatency(rep *report, cellUS []float64) {
	s := sortedCopy(cellUS)
	rep.check(tailSupported(len(s), 0.99), "sim-grid: %d cells do not support a p99", len(s))
	putLatency(rep, percentile(s, 0.5), percentile(s, 0.99), len(s))
}

// A timedStream wraps a workgen stream. Untraced, it times every
// streamSlice jobs pulled; traced, it records a workgen.next span per
// pull under the current cell span.
type timedStream struct {
	workgen.Stream
	jobs int64

	sliceStart time.Time
	slicesUS   *[]float64

	rec    *recorder
	parent *atomic.Uint64
	nextNS *int64
}

func (s *timedStream) Next(j *workgen.Job) bool {
	if s.rec == nil {
		ok := s.Stream.Next(j)
		if ok {
			s.jobs++
			if s.jobs%streamSlice == 0 {
				now := time.Now()
				if !s.sliceStart.IsZero() {
					*s.slicesUS = append(*s.slicesUS, float64(now.Sub(s.sliceStart))/1e3)
				}
				s.sliceStart = now
			}
		}
		return ok
	}
	start := s.rec.now()
	ok := s.Stream.Next(j)
	end := s.rec.now()
	parent := s.parent.Load()
	s.rec.add(span{id: s.rec.newID(), parent: parent, req: parent, layer: layerWorkgen,
		name: "workgen.next", tid: 0, start: start, end: end})
	*s.nextNS += end - start
	if ok {
		s.jobs++
	}
	return ok
}

// runSimStream measures one poisson-mix cell at scale 1, repeated. An
// operation is one stream job; latency is the wall time of a slice of
// streamSlice consecutive jobs.
func runSimStream(ctx context.Context, e *env, rep *report) error {
	spec := workgen.PoissonMixSpec()
	wantJobs := spec.Stream.MaxJobs
	if e.breakCheck {
		wantJobs++
	}
	var tenants []workgen.Tenant
	var slicesUS []float64
	var tb *timedBackend
	var nextNS int64
	wrap := func(s workgen.Stream) workgen.Stream {
		tenants = s.Tenants()
		ts := &timedStream{Stream: s, slicesUS: &slicesUS}
		if tb != nil {
			ts.rec, ts.parent, ts.nextNS = tb.rec, &tb.cell, &nextNS
		}
		return ts
	}

	// Set-up builds the matrix and warms the code with one scale-64
	// cell of the same stream.
	setup, err := medianSetup(setupRepeats, func(bool) error {
		_, _, err := runPass(ctx, streamMatrix(e.seed, 64, wrap), nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	slicesUS = slicesUS[:0] // set-up cells are not measured
	m := streamMatrix(e.seed, 1, wrap)
	var fp string
	var first *harness.MatrixResult

	// minStreamCells keeps a short run above 1,000 latency slices and
	// gives the fingerprint repeat check at least a pair.
	const minStreamCells = 3

	// cells runs stream cells for d (at least minStreamCells) and
	// returns their wall times.
	cells := func(d time.Duration, totals *simLayerTotals) ([]float64, int64, error) {
		var secs []float64
		var jobs int64
		for end := time.Now().Add(d); len(secs) < minStreamCells || time.Now().Before(end); {
			res, took, err := runPass(ctx, m, tb, len(secs))
			if err != nil {
				return nil, 0, err
			}
			secs = append(secs, took.Seconds())
			cr := res.Cells[0]
			r := cr.Result
			jobs += r.StreamJobs
			rep.check(r.StreamJobs == wantJobs, "sim-stream: %d stream jobs, want %d", r.StreamJobs, wantJobs)
			rep.check(cr.LatencyDigest.N() == int64(r.ServedRPCs),
				"sim-stream: latency digest holds %d samples, %d RPCs served", cr.LatencyDigest.N(), r.ServedRPCs)
			got := res.Fingerprint()
			if fp == "" {
				fp, first = got, res
			}
			rep.check(got == fp, "sim-stream: fingerprint %s differs from first repetition %s", got, fp)
			if totals != nil {
				totals.add(res)
			}
		}
		return secs, jobs, nil
	}

	if !e.trace {
		secs, jobs, err := cells(e.seconds, nil)
		if err != nil {
			return err
		}
		rep.attempted = jobs
		rep.metrics["setup_s"] = setup
		rep.metrics["ops_per_s"] = float64(jobs/int64(len(secs))) / percentile(sortedCopy(secs), fastQuartile)
		putSliceLatency(rep, slicesUS)
		rep.metrics["goodput_pct"], rep.metrics["fairness_jain"] = simGoodputFairness(first, m.Scenarios, tenants)
		return nil
	}

	half := e.seconds / 2
	p0 := readProc()
	plain, plainJobs, err := cells(half, nil)
	if err != nil {
		return err
	}
	p1 := readProc()
	putProcCosts(rep.metrics, p0, p1, int64(len(plain)), plainJobs, 0)
	putSliceLatency(rep, slicesUS)

	tb = &timedBackend{inner: harness.NewSimBackend(), rec: newRecorder()}
	var totals simLayerTotals
	traced, tracedJobs, err := cells(half, &totals)
	if err != nil {
		return err
	}
	rep.attempted = plainJobs + tracedJobs
	totals.put(rep.metrics, len(traced), time.Duration(sum(traced)*float64(time.Second)))
	cellUS := sortedCopy(tb.cellUS)
	rep.metrics["harness.run_ms"] = percentile(sortedCopy(traced), 0.5) * 1e3
	rep.metrics["sim.cell_us.p50"] = percentile(cellUS, 0.5)
	rep.metrics["sim.cell_us.max"] = cellUS[len(cellUS)-1]
	rep.metrics["workgen.jobs"] = float64(tracedJobs) / float64(len(traced))
	rep.metrics["workgen.next_ns.mean"] = float64(nextNS) / float64(tracedJobs)
	plainRate := float64(plainJobs) / sum(plain)
	rep.metrics["trace.overhead_pct"] = 100 * (plainRate - float64(tracedJobs)/sum(traced)) / plainRate
	if len(tenants) == 0 {
		return fmt.Errorf("stream reported no tenants")
	}
	return putSelfTimes(rep.metrics, e, tb.rec)
}

// putSliceLatency records the wall times of streamSlice-job slices as
// the latency.
func putSliceLatency(rep *report, slicesUS []float64) {
	s := sortedCopy(slicesUS)
	rep.check(tailSupported(len(s), 0.99), "sim-stream: %d slices do not support a p99", len(s))
	putLatency(rep, percentile(s, 0.5), percentile(s, 0.99), len(s))
}
