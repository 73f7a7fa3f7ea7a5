package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptbf/internal/edt"
	"adaptbf/internal/tbf"
)

// This file is the shared fixture behind the BenchmarkGate* contention
// benchmarks (gates_bench_test.go) and the gate-throughput half of the
// CLI's -gate regression check: both drive the same gate constructions
// with the same flow set under the same threading shape (many enqueuers,
// one dispatcher), so the ops/sec the check measures is the quantity the
// benchmarks report and BENCH_matrix.json tracks.

// gateBenchJobs is the fixed flow set every measurement hammers: eight
// flows, so the schedulers' per-flow state is exercised, not one queue.
var gateBenchJobs = func() []string {
	jobs := make([]string, 8)
	for i := range jobs {
		jobs[i] = fmt.Sprintf("flow%d.n01", i+1)
	}
	return jobs
}()

// gateBenchRules yields one TBF rule per measurement flow, rated far
// above the offered load so tokens never delay a request: time through
// the gate is locking cost, not pacing.
func gateBenchRules() []tbf.Rule {
	rules := make([]tbf.Rule, len(gateBenchJobs))
	for i, id := range gateBenchJobs {
		rules[i] = tbf.Rule{
			Name:  "bench_" + id,
			Match: tbf.Match{JobIDs: []string{id}},
			Rate:  1e9, // never the bottleneck
			Order: i + 1,
		}
	}
	return rules
}

// newGateUnderMeasurement stands up the named gate with the
// measurement fixture installed: "tbf" (token buckets under the
// fixture's rules) or "edt" (earliest-departure-time pacing, rates set
// so departure stamps never delay), each behind the OSS's single gate
// lock.
func newGateUnderMeasurement(name string) (*lockedGate, error) {
	switch name {
	case "tbf":
		sc := tbf.NewScheduler(tbf.Config{BucketDepth: 16})
		for _, r := range gateBenchRules() {
			if err := sc.StartRule(r, 0); err != nil {
				return nil, err
			}
		}
		return newLockedGate(sc, nil), nil
	case "edt":
		return newLockedGate(edt.New(edt.Config{
			Rates: func(string) float64 { return 1e15 }, // bytes/s, never the bottleneck
		}), nil), nil
	default:
		return nil, fmt.Errorf("cluster: unknown gate under measurement %q", name)
	}
}

// GateThroughputNames lists the gate implementations
// MeasureGateThroughput knows how to stand up, in canonical order.
func GateThroughputNames() []string { return []string{"tbf", "edt"} }

// MeasureGateThroughput hammers the named gate for one wall-clock window
// with GOMAXPROCS enqueuer goroutines racing a single dispatcher — the
// threading shape of a live OSS — and reports requests through the gate
// per second. The measurement is wall-clock: compare runs on the same
// machine class only, and take the best of several windows to shed
// scheduler noise.
func MeasureGateThroughput(name string, window time.Duration) (opsPerSec float64, err error) {
	gate, err := newGateUnderMeasurement(name)
	if err != nil {
		return 0, err
	}
	var (
		enqueued atomic.Int64
		stop     atomic.Bool
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		var drained int64
		for {
			if _, _, ok := gate.Dequeue(time.Now().UnixNano()); ok {
				drained++
				continue
			}
			if stop.Load() && drained >= enqueued.Load() {
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := enqueued.Add(1)
				gate.Enqueue(&tbf.Request{
					JobID:  gateBenchJobs[int(i)%len(gateBenchJobs)],
					Op:     tbf.OpWrite,
					Bytes:  64 << 10,
					Stream: int(i),
				}, time.Now().UnixNano())
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-done
	elapsed := time.Since(start)
	return float64(enqueued.Load()) / elapsed.Seconds(), nil
}
