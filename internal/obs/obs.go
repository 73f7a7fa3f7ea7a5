// Package obs is the observability substrate shared by all three
// execution backends: a lock-cheap metrics registry (atomic counters,
// gauges, and latency histograms) and a structured tracer whose spans
// export as Chrome trace-event JSON loadable in Perfetto.
//
// Both halves are strictly zero-cost when disabled. A nil *Registry,
// *Tracer, or *CellObs is the disabled state: every hot path guards its
// instrumentation behind one nil check and otherwise touches nothing —
// no allocation, no atomic, no branch beyond the check. The simulator's
// golden fingerprint and steady-state allocation budgets are pinned
// against that contract.
//
// Clocks are injected, not assumed: the simulator passes its virtual
// des clock so a traced cell is bit-identical across runs with the same
// seed, while the live and remote backends pass OSS time (wall clock ×
// speedup since the cell epoch). All times in this package are int64
// nanoseconds on the caller's epoch, matching the rest of the module.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Well-known metric names. Backends populate the subset that exists on
// their substrate; consumers must treat any name as optional.
const (
	// MetricServed counts RPCs served to completion.
	MetricServed = "rpc_served_total"
	// MetricRejected counts RPCs refused by admission control on arrival.
	MetricRejected = "rpc_rejected_total"
	// MetricShed counts admitted RPCs shed past their queueing deadline.
	MetricShed = "rpc_shed_total"
	// MetricOfferedBytes counts bytes offered (served or not).
	MetricOfferedBytes = "bytes_offered_total"
	// MetricGoodputBytes counts bytes actually served.
	MetricGoodputBytes = "bytes_goodput_total"
	// MetricCtrlTicks counts controller epochs (AdapTBF ticks, GIFT walks).
	MetricCtrlTicks = "ctrl_ticks_total"
	// MetricRetries counts transport-level RPC retries (remote backend).
	MetricRetries = "transport_retries_total"
	// MetricRedials counts transport reconnects (remote backend).
	MetricRedials = "transport_redials_total"
	// GaugeBorrowed accumulates tokens borrowed across controller epochs
	// (the paper's adaptive-borrowing signal; one unit = one token·tick).
	GaugeBorrowed = "tokens_borrowed_total"
	// GaugeBucketTokens is the token-bucket occupancy (tokens available
	// across all TBF buckets) sampled at the latest controller epoch.
	GaugeBucketTokens = "tbf_bucket_tokens"
	// GaugeQueueDepth is the request-gate backlog sampled at the latest
	// controller epoch.
	GaugeQueueDepth = "gate_queue_depth"
	// HistGateLockWait measures time spent waiting to acquire a live
	// OSS request-gate lock (wall nanoseconds; live/remote backends
	// only). The observation lives inside the gate lock itself — one
	// sample per lock acquisition, whichever scheduler (TBF, EDT, SFQ)
	// sits behind it — so every gate reports comparable contention
	// numbers from the same seam. The gate-contention study compares these distributions.
	HistGateLockWait = "gate_lock_wait_ns"
)

// A Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reports the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// A Gauge is an atomic float64 value that can also accumulate.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates v into the gauge.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load reports the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of a Histogram: power-of-two
// nanosecond buckets, bucket i counting observations in [2^(i-1), 2^i).
const histBuckets = 40

// A Histogram accumulates nanosecond durations into fixed power-of-two
// buckets with exact count, sum, and max — cheap enough for per-RPC
// lock-wait measurement on the live path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// A Registry holds named metrics. Get-or-create goes through one mutex;
// hot paths hold the returned *Counter/*Gauge/*Histogram directly, so
// steady-state updates are single atomic operations. A nil Registry is
// the disabled state: the getters return nil and the snapshot is empty.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// A HistogramSnapshot is the exported view of one histogram. Buckets
// holds the power-of-two counts (bucket i counts observations in
// [2^(i-1), 2^i) nanoseconds), trimmed of trailing zeros; it is what
// makes quantiles of merged snapshots computable downstream.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	MaxNs   int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds from
// the power-of-two buckets: the upper bound 2^i of the bucket holding
// the q·Count-th observation, capped at the exact MaxNs. Returns 0 for
// an empty histogram or one snapshotted without buckets.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			upper := int64(1) << uint(i) // bucket i spans [2^(i-1), 2^i)
			if upper > h.MaxNs {
				upper = h.MaxNs
			}
			return upper
		}
	}
	return h.MaxNs
}

// A Snapshot is the point-in-time value of every metric in a registry —
// the form that rides CellResult and the report document's obs section.
// Snapshots merge additively, so per-node snapshots fold into a cell and
// per-cell snapshots fold into run totals.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every metric. A nil registry
// yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ctrs) > 0 {
		s.Counters = make(map[string]int64, len(r.ctrs))
		for name, c := range r.ctrs {
			s.Counters[name] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Count: h.count.Load(),
				SumNs: h.sum.Load(),
				MaxNs: h.max.Load(),
			}
			// Export the buckets trimmed of the zero tail, so a typical
			// (µs-scale) histogram serializes ~20 numbers, not 40.
			last := -1
			for i := range h.buckets {
				if h.buckets[i].Load() > 0 {
					last = i
				}
			}
			if last >= 0 {
				hs.Buckets = make([]int64, last+1)
				for i := 0; i <= last; i++ {
					hs.Buckets[i] = h.buckets[i].Load()
				}
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Merge folds o into s additively (histogram maxes take the larger).
func (s *Snapshot) Merge(o Snapshot) {
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64)
		}
		s.Gauges[name] += v
	}
	for name, v := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot)
		}
		cur := s.Histograms[name]
		cur.Count += v.Count
		cur.SumNs += v.SumNs
		if v.MaxNs > cur.MaxNs {
			cur.MaxNs = v.MaxNs
		}
		if len(v.Buckets) > 0 {
			if len(v.Buckets) > len(cur.Buckets) {
				grown := make([]int64, len(v.Buckets))
				copy(grown, cur.Buckets)
				cur.Buckets = grown
			}
			for i, n := range v.Buckets {
				cur.Buckets[i] += n
			}
		}
		s.Histograms[name] = cur
	}
}

// Counter reads a counter out of the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge reads a gauge out of the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// IsZero reports whether the snapshot carries no metrics at all.
func (s Snapshot) IsZero() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (v0.0.4), names sorted so the output is stable. Histograms are
// rendered as <name>_count / <name>_sum / <name>_max untyped samples —
// the power-of-two buckets stay internal.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

func writePrometheus(w io.Writer, s Snapshot) error {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s_count counter\n%s_count %d\n", name, name, h.Count)
		fmt.Fprintf(&b, "# TYPE %s_sum counter\n%s_sum %d\n", name, name, h.SumNs)
		fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %d\n", name, name, h.MaxNs)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// A CellObs bundles one cell's observability sinks: the tracer (nil when
// tracing is off) and the metrics registry (nil when metrics are off).
// A nil *CellObs disables both; every instrumented hot path performs
// exactly one nil check against it.
type CellObs struct {
	Tracer  *Tracer
	Metrics *Registry
}

// Enabled reports whether either sink is live.
func (c *CellObs) Enabled() bool {
	return c != nil && (c.Tracer != nil || c.Metrics != nil)
}
