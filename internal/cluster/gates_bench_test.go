package cluster

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptbf/internal/tbf"
)

// The gate contention benchmarks drive the live TBF and EDT gates
// under b.RunParallel: every P hammers Enqueue with
// flow-keyed requests while a single dispatcher goroutine drains — the
// exact threading shape of a live OSS (many runner goroutines, one
// dispatcher). The fixture (flows, rules, gate construction) is shared
// with MeasureGateThroughput in gatebench.go, which is how the CLI's
// -gate check re-measures the same quantity BENCH_matrix.json's
// gate_throughput section tracks. Run with:
//
//	go test -run '^$' -bench 'BenchmarkGate' -benchmem ./internal/cluster/

// benchGate drives one gate: parallel enqueuers (the timed loop) racing
// a single dispatcher that drains until every request came back out, so
// ns/op covers the full enqueue-to-dequeue lifecycle under contention.
func benchGate(b *testing.B, name string) {
	gate, err := newGateUnderMeasurement(name)
	if err != nil {
		b.Fatal(err)
	}
	want := int64(b.N)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for drained := int64(0); drained < want; {
			if _, _, ok := gate.Dequeue(time.Now().UnixNano()); ok {
				drained++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			gate.Enqueue(&tbf.Request{
				JobID:  gateBenchJobs[int(i)%len(gateBenchJobs)],
				Op:     tbf.OpWrite,
				Bytes:  64 << 10,
				Stream: int(i),
			}, time.Now().UnixNano())
		}
	})
	<-done
	b.StopTimer()
}

func BenchmarkGateTBF(b *testing.B) { benchGate(b, "tbf") }
func BenchmarkGateEDT(b *testing.B) { benchGate(b, "edt") }
