package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"adaptbf/internal/tbf"
	"adaptbf/internal/transport"
)

const (
	// overloadRate is the open loop's offered rate, RPC/s: twice the
	// 5,000 tokens/s the OSS grants at T_i = 500 and Speedup 10.
	overloadRate = 10000.0
	// overloadRamp runs the open loop before the measurement window so
	// the gate queue and the controller's rules reach steady state.
	overloadRamp = time.Second
	// drainLimit bounds the wait for replies after sending stops.
	drainLimit = 30 * time.Second
)

// What became of one open-loop RPC.
const (
	kindPending = iota
	kindServed
	kindRefused
	kindShed
	kindError
)

// olRec is one open-loop RPC; times are ns since the loop started.
type olRec struct {
	due, sent, done int64
	tenant          int
	kind            uint8
}

// olResult is what one open-loop phase measured.
type olResult struct {
	recs       []olRec
	out        outcome
	clientRecs []clientRec
}

// openLoop sends 1 MiB RPCs at Poisson due times drawn from seed, for
// overloadRamp + d, each tenant on its own connection in turn. It
// never waits for replies before sending; it returns once every reply
// is in.
func openLoop(ctx context.Context, f *fixture, seed int64, d time.Duration) (olResult, error) {
	sched := poissonSchedule(seed, overloadRate, overloadRamp+d)
	res := olResult{recs: make([]olRec, len(sched))}
	var traced []clientRec // client timings, indexed like recs
	if f.rec != nil {
		traced = make([]clientRec, len(sched))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range sched {
		if ctx.Err() != nil {
			break
		}
		if wait := time.Duration(due - int64(time.Since(start))); wait > 0 {
			time.Sleep(wait)
		}
		ti := i % len(f.p.tenants)
		op := tbf.OpRead
		if (i/len(f.p.tenants))%2 == 1 {
			op = tbf.OpWrite
		}
		req := transport.Request{JobID: f.p.tenants[ti].id, Op: uint8(op), Bytes: f.p.rpcBytes, Stream: ti}
		var cs int64
		if f.rec != nil {
			cs = f.rec.now()
		}
		r := &res.recs[i]
		r.due, r.sent, r.tenant = due, int64(time.Since(start)), ti
		ch, seq, err := f.clients[ti].DoCtx(context.Background(), req)
		if err != nil {
			r.done, r.kind = r.sent, kindError
			continue
		}
		wg.Add(1)
		go func(i int, ch <-chan transport.Reply, key uint64) {
			defer wg.Done()
			rep := <-ch
			r := &res.recs[i]
			r.done = int64(time.Since(start))
			var o outcome
			switch served := o.classify(rep, req.Bytes); {
			case served:
				r.kind = kindServed
			case o.refused > 0:
				r.kind = kindRefused
			case o.shed > 0:
				r.kind = kindShed
			default:
				r.kind = kindError
			}
			if f.rec != nil {
				ce := f.rec.now()
				traced[i] = clientRec{key: key, start: cs, end: ce}
				f.rec.add(span{id: rpcSpanID(key, 1), req: key, layer: layerTransport,
					name: "transport.call", tid: int64(ti), start: cs, end: ce})
			}
		}(i, ch, rpcKey(ti, seq))
	}

	// Drain: every reply arrives once the queue empties; a server that
	// stops answering is cut off by closing the clients, which fails
	// every pending call.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainLimit):
		for _, c := range f.clients {
			c.Close()
		}
		<-drained
	}
	for i, r := range res.recs {
		switch r.kind {
		case kindPending:
			continue // never sent: the run's deadline stopped the loop
		case kindServed:
			res.out.sent++
			res.out.served++
			res.out.servedBytes += f.p.rpcBytes
		case kindRefused:
			res.out.sent++
			res.out.refused++
		case kindShed:
			res.out.sent++
			res.out.shed++
		default:
			res.out.sent++
			res.out.errs++
		}
		res.out.sentBytes += f.p.rpcBytes
		if f.rec != nil && traced[i].key != 0 {
			res.clientRecs = append(res.clientRecs, traced[i])
		}
	}
	if ctx.Err() != nil {
		return res, errTimeout
	}
	return res, nil
}

// windowStats summarizes an open-loop phase over [lo, hi) of its
// clock: offered work is what fell due inside it, served work what
// completed inside it — never the backlog drained after sending
// stopped, which would hand every tenant the same count and hide
// starvation.
type windowStats struct {
	offered, served, errs       int64
	offeredBytes, servedBytes   float64
	servedTenant, offeredTenant []float64
	latUS, lateUS               []float64
}

func window(recs []olRec, p ossParams, lo, hi int64) windowStats {
	w := windowStats{servedTenant: make([]float64, len(p.tenants)), offeredTenant: make([]float64, len(p.tenants))}
	bytes := float64(p.rpcBytes)
	for _, r := range recs {
		if r.kind == kindPending {
			continue
		}
		if r.due >= lo && r.due < hi {
			w.offered++
			w.offeredBytes += bytes
			w.offeredTenant[r.tenant] += bytes
			w.lateUS = append(w.lateUS, float64(r.sent-r.due)/1e3)
			if r.kind == kindError {
				w.errs++
			}
		}
		if r.kind == kindServed && r.done >= lo && r.done < hi {
			w.served++
			w.servedBytes += bytes
			w.servedTenant[r.tenant] += bytes
			w.latUS = append(w.latUS, float64(r.done-r.due)/1e3)
		}
	}
	return w
}

// runOSSOverload measures the open loop under overload. An operation is
// one RPC due in the window; throughput and latency count the RPCs
// served inside it, latency timed from each RPC's due time.
func runOSSOverload(ctx context.Context, e *env, rep *report) error {
	p, err := overloadParams()
	if err != nil {
		return err
	}
	if !e.trace {
		f, setup, err := buildFixtures(ctx, p)
		if err != nil {
			return err
		}
		res, err := openLoop(ctx, f, e.seed, e.seconds)
		f.close()
		if err != nil {
			return err
		}
		f.checkConservation(rep, res.out, e.breakCheck)
		w := window(res.recs, p, int64(overloadRamp), int64(overloadRamp+e.seconds))
		rep.attempted, rep.failed = w.offered, w.errs
		putServedLatency(rep, w)
		rep.metrics["setup_s"] = setup
		rep.metrics["ops_per_s"] = float64(w.served) / e.seconds.Seconds()
		rep.metrics["goodput_pct"] = 100 * w.servedBytes / w.offeredBytes
		rep.metrics["fairness_jain"] = nodeWeightedJain(w.servedTenant, tenantNodes(p.tenants))
		for i, t := range p.tenants {
			fmt.Fprintf(os.Stderr, "perfbench: %s served %.1f%% of its offered RPCs\n", t.id, 100*w.servedTenant[i]/w.offeredTenant[i])
		}
		fmt.Fprintf(os.Stderr, "perfbench: generator late p99 %.0f us\n", percentile(sortedCopy(w.lateUS), 0.99))
		return nil
	}

	half := e.seconds / 2
	f, err := newFixture(ctx, p, nil)
	if err != nil {
		return err
	}
	p0 := readProc()
	plain, err := openLoop(ctx, f, e.seed, half)
	p1 := readProc()
	f.close()
	if err != nil {
		return err
	}
	f.checkConservation(rep, plain.out, e.breakCheck)
	putProcCosts(rep.metrics, p0, p1, 0, 0, plain.out.served)
	lo, hi := int64(overloadRamp), int64(overloadRamp+half)
	wp := window(plain.recs, p, lo, hi)
	putServedLatency(rep, wp)

	rec := newRecorder()
	f, err = newFixture(ctx, p, rec)
	if err != nil {
		return err
	}
	traced, err := openLoop(ctx, f, e.seed, half)
	busy := f.close()
	if err != nil {
		return err
	}
	f.checkConservation(rep, traced.out, e.breakCheck)
	wt := window(traced.recs, p, lo, hi)
	rep.attempted = wp.offered + wt.offered
	rep.failed = wp.errs + wt.errs
	putServerLayers(rep, f, traced.clientRecs, busy)
	rep.metrics["gen.late_us.p99"] = percentile(sortedCopy(wt.lateUS), 0.99)
	rep.metrics["gen.sent"] = float64(wt.offered)
	rep.metrics["trace.overhead_pct"] = 100 * float64(wp.served-wt.served) / float64(wp.served)
	return putSelfTimes(rep.metrics, e, rec)
}

// putServedLatency records the window's served RPCs, timed from their
// due times, as the latency.
func putServedLatency(rep *report, w windowStats) {
	lat := sortedCopy(w.latUS)
	rep.check(tailSupported(len(lat), 0.99), "oss-overload: %d served RPCs do not support a p99", len(lat))
	putLatency(rep, percentile(lat, 0.5), percentile(lat, 0.99), len(lat))
}
