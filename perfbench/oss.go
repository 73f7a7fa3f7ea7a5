package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/cluster"
	"adaptbf/internal/controller"
	"adaptbf/internal/device"
	"adaptbf/internal/obs"
	"adaptbf/internal/tbf"
	"adaptbf/internal/transport"
)

// A tenant is one job sending RPCs, with its compute-node count.
type tenant struct {
	id    string
	nodes int
}

// ossParams describes one live workload's server and clients.
type ossParams struct {
	cfg      cluster.OSSConfig
	maxRate  float64       // AdapTBF T_i, tokens/s of OSS time
	period   time.Duration // Δt in OSS time
	tenants  []tenant
	conns    int
	rpcBytes int64
	// connTenant pins connection c to tenant c (one client per job);
	// otherwise every connection sends for every tenant in turn.
	connTenant bool
}

// rpcParams: a near-zero-cost device and a token rate far above what
// the host can send, so only the server's CPU path costs anything.
func rpcParams() ossParams {
	ts := make([]tenant, 8)
	for i := range ts {
		ts[i] = tenant{id: fmt.Sprintf("rpc%d.n01", i), nodes: 1}
	}
	return ossParams{
		cfg: cluster.OSSConfig{
			Device: device.Params{BytesPerSec: 1 << 50},
		},
		maxRate:  1e9,
		period:   100 * time.Millisecond,
		tenants:  ts,
		conns:    runtime.NumCPU(),
		rpcBytes: 4 << 10,
	}
}

// overloadParams: the default SSD at Speedup 10 behind AdapTBF with
// T_i = 500 and deadline-queue admission; four tenants of 1/2/4/8
// nodes, one connection each.
func overloadParams() (ossParams, error) {
	adm, err := admission.Parse("deadline-queue:limit=256,deadline=250ms")
	if err != nil {
		return ossParams{}, err
	}
	return ossParams{
		cfg: cluster.OSSConfig{
			Device:    device.Default(),
			Speedup:   10,
			Admission: adm,
		},
		maxRate: 500,
		period:  100 * time.Millisecond,
		tenants: []tenant{
			{"small.n01", 1}, {"mid.n02", 2}, {"large.n04", 4}, {"huge.n08", 8},
		},
		conns:      4,
		rpcBytes:   1 << 20,
		connTenant: true,
	}, nil
}

// rpcKey identifies one RPC across client and server: the connection
// (carried as the request's Stream) and the seq DoCtx assigned.
func rpcKey(conn int, seq uint64) uint64 { return uint64(conn)<<40 | seq }

// outcome tallies what became of RPCs, client side.
type outcome struct {
	sent, served, refused, shed, errs int64
	sentBytes, servedBytes            int64
}

func (o *outcome) add(p outcome) {
	o.sent += p.sent
	o.served += p.served
	o.refused += p.refused
	o.shed += p.shed
	o.errs += p.errs
	o.sentBytes += p.sentBytes
	o.servedBytes += p.servedBytes
}

// classify counts one reply for a request of size bytes and reports
// whether it was served in full.
func (o *outcome) classify(rep transport.Reply, bytes int64) bool {
	o.sent++
	o.sentBytes += bytes
	switch {
	case rep.Err != "":
		o.errs++
	case rep.Reject == transport.RejectRefused:
		o.refused++
	case rep.Reject == transport.RejectShed:
		o.shed++
	case rep.Bytes == bytes:
		o.served++
		o.servedBytes += bytes
		return true
	default:
		o.errs++
	}
	return false
}

// srvRec is the server-side timing of one RPC (recorder clock).
type srvRec struct {
	entry, handled, replied int64
	reject                  uint8
}

// A fixture is one live OSS behind transport.Serve on loopback TCP,
// its dialed clients, and its AdapTBF controller ticked by the
// benchmark itself so each Tick is timed.
type fixture struct {
	p       ossParams
	oss     *cluster.OSS
	ln      net.Listener
	served  chan struct{}
	clients []*transport.Client
	ctl     *controller.Controller
	born    time.Time

	stopTick chan struct{}
	tickWG   sync.WaitGroup

	// Traced fixtures only: spans, server-side RPC timings, and the
	// OSS's metrics registry (gate lock wait).
	rec *recorder
	reg *obs.Registry
	mu  sync.Mutex
	srv map[uint64]*srvRec

	tickMu  sync.Mutex
	tickUS  []float64
	allocUS []float64
	ruleOps int64
	tickErr error

	warm outcome // set-up traffic, for the conservation check
}

// warmCalls is how many calls each connection completes per tenant
// while a fixture warms up.
const warmCalls = 8

// newFixture builds and warms a fixture: every connection completes
// warmCalls calls for every tenant it serves, then one controller tick
// runs before the periodic ticker starts.
func newFixture(ctx context.Context, p ossParams, rec *recorder) (*fixture, error) {
	f := &fixture{p: p, rec: rec, born: time.Now(), served: make(chan struct{}), stopTick: make(chan struct{})}
	cfg := p.cfg
	if rec != nil {
		f.reg = obs.NewRegistry()
		cfg.Obs = &obs.CellObs{Metrics: f.reg}
		f.srv = make(map[uint64]*srvRec)
	}
	f.oss = cluster.NewOSS(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.oss.Close()
		return nil, err
	}
	f.ln = ln
	var h transport.Handler = f.oss
	if rec != nil {
		h = transport.HandlerFunc(f.tracedHandle)
	}
	go func() {
		defer close(f.served)
		_ = transport.Serve(ln, h) // returns nil once the listener closes
	}()
	for i := 0; i < p.conns; i++ {
		c, err := transport.Dial("tcp", ln.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	nodes := make(map[string]int, len(p.tenants))
	for _, t := range p.tenants {
		nodes[t.id] = t.nodes
	}
	f.ctl = f.oss.NewController(controller.NodeMapperFunc(func(job string) int { return max(nodes[job], 1) }), p.maxRate, p.period)

	for c, cl := range f.clients {
		for ti, t := range p.tenants {
			if p.connTenant && ti != c {
				continue
			}
			for k := 0; k < warmCalls; k++ {
				req := transport.Request{JobID: t.id, Op: uint8(tbf.OpWrite), Bytes: p.rpcBytes, Stream: c}
				rep, err := cl.CallCtx(ctx, req)
				if err != nil {
					f.close()
					return nil, fmt.Errorf("warm-up call: %w", err)
				}
				f.warm.classify(rep, p.rpcBytes)
			}
		}
	}
	f.tick()
	f.tickWG.Add(1)
	go f.ticker()
	return f, nil
}

// tick runs and times one controller cycle.
func (f *fixture) tick() {
	var start int64
	if f.rec != nil {
		start = f.rec.now()
	}
	t0 := time.Now()
	rep := f.ctl.Tick(f.oss.Now())
	took := time.Since(t0)
	if f.rec != nil {
		f.rec.add(span{id: f.rec.newID(), layer: layerController, name: "controller.tick",
			tid: obs.ControllerTID, start: start, end: start + int64(took)})
	}
	f.tickMu.Lock()
	f.tickUS = append(f.tickUS, float64(took)/1e3)
	f.allocUS = append(f.allocUS, float64(rep.AllocTime)/1e3)
	f.ruleOps += int64(len(rep.Ops.Applied))
	if rep.Err != nil && f.tickErr == nil {
		f.tickErr = rep.Err
	}
	f.tickMu.Unlock()
}

// ticker ticks every Δt of OSS time until close.
func (f *fixture) ticker() {
	defer f.tickWG.Done()
	speed := f.p.cfg.Speedup
	if speed <= 0 {
		speed = 1
	}
	t := time.NewTicker(time.Duration(float64(f.p.period) / speed))
	defer t.Stop()
	for {
		select {
		case <-f.stopTick:
			return
		case <-t.C:
			f.tick()
		}
	}
}

// tracedHandle times OSS.Handle: entry to return (handle) and entry
// to the reply callback (residence), keyed by the RPC.
func (f *fixture) tracedHandle(req transport.Request, reply func(transport.Reply)) {
	key := rpcKey(req.Stream, req.Seq)
	r := &srvRec{entry: f.rec.now()}
	f.mu.Lock()
	f.srv[key] = r
	f.mu.Unlock()
	f.oss.Handle(req, func(rep transport.Reply) {
		now := f.rec.now()
		f.mu.Lock()
		r.replied, r.reject = now, rep.Reject
		f.mu.Unlock()
		f.rec.add(span{id: rpcSpanID(key, 2), parent: rpcSpanID(key, 1), req: key, layer: layerCluster,
			name: "oss.residence", tid: int64(req.Stream), start: r.entry, end: now})
		reply(rep)
	})
	now := f.rec.now()
	f.mu.Lock()
	r.handled = now
	f.mu.Unlock()
	f.rec.add(span{id: rpcSpanID(key, 3), parent: rpcSpanID(key, 2), req: key, layer: layerCluster,
		name: "oss.handle", tid: int64(req.Stream), start: r.entry, end: now})
}

// close stops the ticker, the clients, the listener and the OSS, and
// returns the device's busy share of the fixture's life in percent.
func (f *fixture) close() float64 {
	if f.ctl != nil {
		select {
		case <-f.stopTick:
		default:
			close(f.stopTick)
		}
		f.tickWG.Wait()
	}
	for _, c := range f.clients {
		c.Close()
	}
	f.ln.Close()
	<-f.served
	f.oss.Close()
	_, busy := f.oss.DeviceStats()
	speed := f.p.cfg.Speedup
	if speed <= 0 {
		speed = 1
	}
	return 100 * busy.Seconds() / speed / time.Since(f.born).Seconds()
}

// checkConservation asserts ROADMAP's invariant — served + refused +
// shed = sent, with no errors — and that the client's counts equal the
// server's own admission counters.
func (f *fixture) checkConservation(rep *report, o outcome, breakCheck bool) {
	o.add(f.warm)
	sent := o.sent
	if breakCheck {
		sent++
	}
	rep.check(o.errs == 0, "%d RPCs failed", o.errs)
	rep.check(o.served+o.refused+o.shed == sent,
		"served %d + refused %d + shed %d != sent %d", o.served, o.refused, o.shed, sent)
	rejected, shed, offered, goodput := f.oss.AdmissionStats()
	rep.check(uint64(o.refused) == rejected && uint64(o.shed) == shed,
		"client saw %d refused / %d shed, OSS counted %d / %d", o.refused, o.shed, rejected, shed)
	rep.check(o.sentBytes == offered && o.servedBytes == goodput,
		"client sent/served %d/%d bytes, OSS offered/goodput %d/%d", o.sentBytes, o.servedBytes, offered, goodput)
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	rep.check(f.tickErr == nil, "controller tick failed: %v", f.tickErr)
}

// buildFixtures builds the fixture setupRepeats times (tearing down all
// but the last) and returns it with the median set-up time.
func buildFixtures(ctx context.Context, p ossParams) (*fixture, float64, error) {
	var f *fixture
	setup, err := medianSetup(setupRepeats, func(last bool) error {
		var err error
		f, err = newFixture(ctx, p, nil)
		if err == nil && !last {
			f.close()
		}
		return err
	})
	return f, setup, err
}

// clientRec is the client-side timing of one traced RPC.
type clientRec struct {
	key        uint64
	start, end int64
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	out        outcome
	elapsed    time.Duration
	latUS      []float64
	perTenant  []float64 // served bytes
	clientRecs []clientRec
}

// closedLoop runs window workers per connection, each with one call in
// flight, for d. Worker w on connection c sends for tenants in turn,
// alternating read and write.
func closedLoop(ctx context.Context, f *fixture, window int, d time.Duration) (loopResult, error) {
	type workerOut struct {
		out     outcome
		lat     []float64
		tenants []float64
		recs    []clientRec
		err     error
	}
	n := len(f.clients) * window
	outs := make([]workerOut, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := i / window
			cl, wo := f.clients[c], &outs[i]
			wo.tenants = make([]float64, len(f.p.tenants))
			for k := i; !stop.Load(); k++ {
				ti := k % len(f.p.tenants)
				op := tbf.OpRead
				if (k/len(f.p.tenants))%2 == 1 {
					op = tbf.OpWrite
				}
				req := transport.Request{JobID: f.p.tenants[ti].id, Op: uint8(op), Bytes: f.p.rpcBytes, Stream: c}
				var rs int64
				if f.rec != nil {
					rs = f.rec.now()
				}
				t0 := time.Now()
				ch, seq, err := cl.DoCtx(context.Background(), req)
				if err != nil {
					wo.err = err
					return
				}
				rep := <-ch
				wo.lat = append(wo.lat, float64(time.Since(t0))/1e3)
				if wo.out.classify(rep, req.Bytes) {
					wo.tenants[ti] += float64(req.Bytes)
				}
				if f.rec != nil {
					key := rpcKey(c, seq)
					re := f.rec.now()
					wo.recs = append(wo.recs, clientRec{key: key, start: rs, end: re})
					f.rec.add(span{id: rpcSpanID(key, 1), req: key, layer: layerTransport,
						name: "transport.call", tid: int64(i), start: rs, end: re})
				}
			}
		}(i)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
	stop.Store(true)
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), perTenant: make([]float64, len(f.p.tenants))}
	for _, wo := range outs {
		if wo.err != nil {
			return res, wo.err
		}
		res.out.add(wo.out)
		res.latUS = append(res.latUS, wo.lat...)
		res.clientRecs = append(res.clientRecs, wo.recs...)
		for t, b := range wo.tenants {
			res.perTenant[t] += b
		}
	}
	if ctx.Err() != nil {
		return res, errTimeout
	}
	return res, nil
}

func tenantNodes(ts []tenant) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.nodes
	}
	return out
}

// runOSSRPC measures the closed loop at one window size. An operation
// is one 4 KiB RPC; latency is what the client sees per call. The rate
// is the fast quartile of segment rates, the percentiles medians over
// segments of one fixture.
func runOSSRPC(ctx context.Context, e *env, rep *report, window int) error {
	p := rpcParams()
	if !e.trace {
		f, setup, err := buildFixtures(ctx, p)
		if err != nil {
			return err
		}
		var total outcome
		var rates, p50s, p99s []float64
		var calls int
		perTenant := make([]float64, len(p.tenants))
		n := segmentsOf(e.seconds)
		for i := 0; i < n && err == nil; i++ {
			var res loopResult
			res, err = closedLoop(ctx, f, window, e.seconds/time.Duration(n))
			total.add(res.out)
			for t, b := range res.perTenant {
				perTenant[t] += b
			}
			lat := sortedCopy(res.latUS)
			rep.check(tailSupported(len(lat), 0.99), "oss-rpc: %d calls in a segment do not support a p99", len(lat))
			calls += len(lat)
			rates = append(rates, float64(res.out.served)/res.elapsed.Seconds())
			p50s = append(p50s, percentile(lat, 0.5))
			p99s = append(p99s, percentile(lat, 0.99))
		}
		f.close()
		if err != nil {
			return err
		}
		checkRPCReplies(rep, f, total, e.breakCheck)
		rep.attempted, rep.failed = total.sent, total.errs
		rep.metrics["setup_s"] = setup
		rep.metrics["ops_per_s"] = percentile(sortedCopy(rates), 1-fastQuartile)
		putLatency(rep, median(p50s), median(p99s), calls)
		rep.metrics["goodput_pct"] = 100 * float64(total.servedBytes) / float64(total.sentBytes)
		rep.metrics["fairness_jain"] = nodeWeightedJain(perTenant, tenantNodes(p.tenants))
		return nil
	}

	half := e.seconds / 2
	f, err := newFixture(ctx, p, nil)
	if err != nil {
		return err
	}
	p0 := readProc()
	plain, err := closedLoop(ctx, f, window, half)
	p1 := readProc()
	f.close()
	if err != nil {
		return err
	}
	checkRPCReplies(rep, f, plain.out, e.breakCheck)
	putProcCosts(rep.metrics, p0, p1, 0, 0, plain.out.served)
	lat := sortedCopy(plain.latUS)
	putLatency(rep, percentile(lat, 0.5), percentile(lat, 0.99), len(lat))

	rec := newRecorder()
	f, err = newFixture(ctx, p, rec)
	if err != nil {
		return err
	}
	traced, err := closedLoop(ctx, f, window, half)
	busy := f.close()
	if err != nil {
		return err
	}
	checkRPCReplies(rep, f, traced.out, e.breakCheck)
	rep.attempted = plain.out.sent + traced.out.sent
	rep.failed = plain.out.errs + traced.out.errs
	putServerLayers(rep, f, traced.clientRecs, busy)
	plainRate := float64(plain.out.served) / plain.elapsed.Seconds()
	rep.metrics["trace.overhead_pct"] = 100 * (plainRate - float64(traced.out.served)/traced.elapsed.Seconds()) / plainRate
	return putSelfTimes(rep.metrics, e, rec)
}

// checkRPCReplies: on oss-rpc every call is served in full.
func checkRPCReplies(rep *report, f *fixture, o outcome, breakCheck bool) {
	want := o.sent
	if breakCheck {
		want++
	}
	rep.check(o.served == want, "oss-rpc: %d of %d calls served in full", o.served, want)
	f.checkConservation(rep, o, false)
}

// putServerLayers matches each traced client call with the server's
// record of it (same connection and seq) and stores the transport,
// OSS, controller, gate, admission and device per-layer metrics. Every
// server interval must lie inside its client call.
func putServerLayers(rep *report, f *fixture, recs []clientRec, busyPct float64) {
	var call, over, handle, resid, reject []float64
	unmatched := 0
	f.mu.Lock()
	for _, c := range recs {
		s, ok := f.srv[c.key]
		if !ok || s.replied == 0 {
			unmatched++
			continue
		}
		rep.check(c.start <= s.entry && s.replied <= c.end,
			"RPC %x: server interval [%d,%d] outside client call [%d,%d]", c.key, s.entry, s.replied, c.start, c.end)
		call = append(call, float64(c.end-c.start)/1e3)
		resid = append(resid, float64(s.replied-s.entry)/1e3)
		over = append(over, float64((c.end-c.start)-(s.replied-s.entry))/1e3)
		if s.handled != 0 {
			h := float64(s.handled-s.entry) / 1e3
			if s.reject == transport.RejectRefused {
				reject = append(reject, h)
			} else {
				handle = append(handle, h)
			}
		}
	}
	f.mu.Unlock()
	rep.check(unmatched == 0, "%d traced calls have no server record", unmatched)
	m := rep.metrics
	for name, xs := range map[string][]float64{
		"transport.call_us": call, "transport.overhead_us": over,
		"oss.handle_us": handle, "oss.residence_us": resid,
	} {
		s := sortedCopy(xs)
		m[name+".p50"] = percentile(s, 0.5)
		m[name+".p99"] = percentile(s, 0.99)
	}
	m["oss.handle_us.reject.p50"] = percentile(sortedCopy(reject), 0.5)

	f.tickMu.Lock()
	ticks := sortedCopy(f.tickUS)
	m["controller.tick_us.p50"] = percentile(ticks, 0.5)
	m["controller.tick_us.p99"] = percentile(ticks, 0.99)
	m["core.alloc_us.p50"] = percentile(sortedCopy(f.allocUS), 0.5)
	m["rules.ops"] = float64(f.ruleOps)
	// The simulator's coordination count: two messages per controller
	// cycle plus one per rule operation (node-local under AdapTBF).
	m["gift.ctrl_msgs"] = float64(2*int64(len(f.tickUS)) + f.ruleOps)
	f.tickMu.Unlock()

	if h, ok := f.reg.Snapshot().Histograms[obs.HistGateLockWait]; ok {
		m["gate.lock_wait_ns.p99"] = float64(h.Quantile(0.99))
	}
	rejected, shed, offered, _ := f.oss.AdmissionStats()
	m["admission.refused"] = float64(rejected)
	m["admission.shed"] = float64(shed)
	m["admission.offered_mb"] = float64(offered) / (1 << 20)
	m["device.busy_pct"] = busyPct
}
