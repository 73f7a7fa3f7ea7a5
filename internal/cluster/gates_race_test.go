package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/edt"
	"adaptbf/internal/tbf"
)

// Conservation and pacing invariants of the live request gate, written
// to run under -race with at least 16 enqueuer goroutines racing the
// single dispatcher — the threading shape of a live OSS. Both
// assertions are direction-robust against scheduler slowness (the race
// detector only delays work): a slow run serves FEWER requests than
// the token budget and releases LATER than the departure stamp, so
// neither test can flake by timing out the invariant it checks.

const raceEnqueuers = 16

// TestTBFGateNoTokenOverIssue: with 16 enqueuers racing the
// dispatcher and the rule installed through the OSS's own locked rule
// engine, over a window T each class releases at most depth + rate*T
// requests (one token per request, buckets start full). A request
// released outside the gate lock, or a bucket refilled twice by racing
// callers, would break the budget.
func TestTBFGateNoTokenOverIssue(t *testing.T) {
	const (
		rate   = 50.0 // tokens/s per (rule, class) bucket
		depth  = 4.0
		window = 300 * time.Millisecond
	)
	sc := tbf.NewScheduler(tbf.Config{BucketDepth: depth})
	st := newLockedGate(sc, nil)
	flows := make([]string, 8)
	for i := range flows {
		flows[i] = fmt.Sprintf("race%d.n01", i+1)
	}
	// One rule matching every flow: per tbf semantics each class (job
	// ID) still gets its own bucket.
	if err := (lockedTBFEngine{g: st, sched: sc}).StartRule(tbf.Rule{
		Name:  "race_all",
		Match: tbf.Match{JobIDs: flows},
		Rate:  rate,
		Order: 1,
	}, time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	var seq atomic.Int64
	for g := 0; g < raceEnqueuers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := seq.Add(1)
				st.Enqueue(&tbf.Request{
					JobID:  flows[int(i)%len(flows)],
					Op:     tbf.OpWrite,
					Bytes:  4 << 10,
					Stream: int(i),
				}, time.Now().UnixNano())
			}
		}()
	}
	served := make(map[string]int)
	deadline := t0.Add(window)
	for time.Now().Before(deadline) {
		if req, _, ok := st.Dequeue(time.Now().UnixNano()); ok {
			served[req.JobID]++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	// +2 requests of slack: one for the token epsilon at a deadline
	// boundary, one for a release in flight when elapsed was sampled.
	budget := depth + rate*elapsed + 2
	var total int
	for _, f := range flows {
		if got := served[f]; float64(got) > budget {
			t.Errorf("class %s released %d requests in %.3fs; token budget is %.1f (depth %.0f + %.0f/s): tokens over-issued",
				f, got, elapsed, budget, depth, rate)
		}
		total += served[f]
	}
	if total == 0 {
		t.Fatal("dispatcher released nothing; the gate is stuck")
	}
	if float64(total) > budget*float64(len(flows)) {
		t.Errorf("released %d requests total, budget %.1f", total, budget*float64(len(flows)))
	}
}

// TestEDTGateNeverReleasesEarly: the live EDT gate must never
// release a flow's k-th request before t0 + (k-1)*bytes/rate. Each
// enqueue advances the flow's next-departure stamp by bytes/rate from
// max(now, stamp) under the gate lock, so the k-th stamp is at least
// that far past the first enqueue regardless of how 16 racing
// enqueuers interleave — the lower bound holds against the test's own
// start time, which precedes every enqueue. (internal/edt pins the
// single-threaded contract; this is the concurrent, locked-gate
// version of the same claim.)
func TestEDTGateNeverReleasesEarly(t *testing.T) {
	const (
		rateBps      = 1e6     // bytes/s per flow
		reqBytes     = 4 << 10 // 4 KiB -> ~4.1ms pacing gap per request
		perGoroutine = 32
	)
	flows := make([]string, 8)
	for i := range flows {
		flows[i] = fmt.Sprintf("edt%d.n01", i+1)
	}
	gate := newLockedGate(edt.New(edt.Config{
		Rates:   func(string) float64 { return rateBps },
		Horizon: int64(time.Hour), // no clamping: clamps would legitimately release early
	}), nil)

	t0 := time.Now().UnixNano()
	var wg sync.WaitGroup
	var seq atomic.Int64
	for g := 0; g < raceEnqueuers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perGoroutine; n++ {
				i := seq.Add(1)
				gate.Enqueue(&tbf.Request{
					JobID:  flows[int(i)%len(flows)],
					Op:     tbf.OpWrite,
					Bytes:  reqBytes,
					Stream: int(i),
				}, time.Now().UnixNano())
			}
		}()
	}
	wg.Wait()

	const gapNs = int64(float64(reqBytes) / rateBps * 1e9)
	want := raceEnqueuers * perGoroutine
	released := make(map[string]int, len(flows))
	for drained := 0; drained < want; {
		now := time.Now().UnixNano()
		req, _, ok := gate.Dequeue(now)
		if !ok {
			runtime.Gosched()
			continue
		}
		k := released[req.JobID] // releases before this one
		released[req.JobID]++
		drained++
		// 1µs of slack absorbs the int64 truncation of each bytes/rate
		// hop; the bound is otherwise exact.
		if earliest := t0 + int64(k)*gapNs - int64(time.Microsecond); now < earliest {
			t.Fatalf("flow %s release #%d at t0+%v, before its earliest departure t0+%v",
				req.JobID, k+1, time.Duration(now-t0), time.Duration(earliest-t0))
		}
	}
	for _, f := range flows {
		if released[f] != want/len(flows) {
			t.Fatalf("flow %s released %d of %d requests", f, released[f], want/len(flows))
		}
	}
}
