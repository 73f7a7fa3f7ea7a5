package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990 leaves 10 above
		{999, 0.99, false}, // rank 990 leaves 9
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestNodeWeightedJain(t *testing.T) {
	nodes := []int{1, 2, 4, 8}
	for _, c := range []struct {
		name   string
		served []float64
		want   float64
	}{
		{"proportional to nodes", []float64{1, 2, 4, 8}, 1},
		{"one tenant served", []float64{0, 0, 0, 5}, 0.25},
		// Equal service is unfair to the larger jobs: x = 1, 1/2, 1/4, 1/8.
		{"equal shares", []float64{1, 1, 1, 1}, 1.875 * 1.875 / (4 * 1.328125)},
		{"nothing served", []float64{0, 0, 0, 0}, 0},
	} {
		if got := nodeWeightedJain(c.served, nodes); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: jain = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeedDeterministic(t *testing.T) {
	span := 10 * time.Second
	a, b := poissonSchedule(7, 10000, span), poissonSchedule(7, 10000, span)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 10000, span); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= int64(span) {
		t.Fatal("schedule not ascending within its span")
	}
	if rate := float64(len(a)) / span.Seconds(); math.Abs(rate-10000)/10000 > 0.03 {
		t.Fatalf("schedule rate %.0f/s, want 10000/s within 3%%", rate)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{id: 1, layer: "a", start: 0, end: 100},
		{id: 2, parent: 1, layer: "b", start: 10, end: 30},
		{id: 3, parent: 1, layer: "b", start: 20, end: 50},  // overlaps 2
		{id: 4, parent: 1, layer: "b", start: 80, end: 120}, // runs past its parent
		{id: 5, parent: 3, layer: "c", start: 25, end: 35},
	}
	got := selfTimes(spans)
	// a: 100 - |[10,50] ∪ [80,100]| = 40; b: 20 + (30-10) + 40; c: 10.
	want := map[string]int64{"a": 40, "b": 80, "c": 10}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, got[l], w)
		}
	}
}

func TestWindowCountsOnlyWorkInsideIt(t *testing.T) {
	p := ossParams{tenants: make([]tenant, 2), rpcBytes: 10}
	lo, hi := int64(overloadRamp), int64(overloadRamp+time.Second)
	recs := []olRec{
		{due: lo - 5, sent: lo - 5, done: lo + 1, tenant: 0, kind: kindServed}, // offered in ramp, served in window
		{due: lo + 1, sent: lo + 3, done: lo + 9, tenant: 1, kind: kindServed},
		{due: lo + 2, sent: lo + 2, done: lo + 2, tenant: 1, kind: kindRefused},
		{due: hi - 1, sent: hi - 1, done: hi + 50, tenant: 0, kind: kindServed}, // drained after the window
		{due: hi + 1, kind: kindPending},
	}
	w := window(recs, p, lo, hi)
	if w.offered != 3 || w.served != 2 {
		t.Fatalf("offered %d served %d, want 3 and 2", w.offered, w.served)
	}
	if !slices.Equal(w.servedTenant, []float64{10, 10}) {
		t.Fatalf("per-tenant served bytes %v, want [10 10]", w.servedTenant)
	}
	if !slices.Equal(w.latUS, []float64{6e-3, 8e-3}) {
		t.Fatalf("latencies from due %v, want [0.006 0.008] us", w.latUS)
	}
}

// TestBenchmarkJSONMatchesBinary pins BENCHMARK.json to the metric and
// workload names this program prints, and every name to the characters
// the result format allows.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	names := func(ms []metric, defs []metricDef, kind string) {
		if len(ms) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(ms), len(defs))
			return
		}
		for i, m := range ms {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s metric %q uses characters outside [A-Za-z0-9_.-]", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	names(doc.EndToEnd, endToEndMetrics, "end_to_end")
	names(doc.PerLayer, perLayerMetrics, "per_layer")
	var wl []string
	for _, w := range doc.Workloads {
		if !valid.MatchString(w.Name) {
			t.Errorf("workload %q uses characters outside [A-Za-z0-9_.-]", w.Name)
		}
		wl = append(wl, w.Name)
	}
	slices.Sort(wl)
	if !slices.Equal(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", wl, workloadNames())
	}
}

func TestResultLineNeedsEveryEndToEndMetric(t *testing.T) {
	rep := &report{metrics: map[string]float64{"setup_s": 1}}
	if _, err := resultLine(rep, false); err == nil {
		t.Fatal("untraced result with missing end-to-end metrics was accepted")
	}
	line, err := resultLine(rep, true)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int64
		Metrics   map[string]any
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 1 || len(got.Metrics) != len(perLayerMetrics) {
		t.Fatalf("traced result %s: want correct, attempted 1 and every per-layer metric", line)
	}
}
