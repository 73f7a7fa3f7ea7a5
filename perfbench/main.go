package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// A metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload;
// the package doc says what each means per workload. BENCHMARK.json
// lists the same names (a test keeps the two in step).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"goodput_pct", "%"},
	{"fairness_jain", "ratio"},
}

// perLayerMetrics are printed by every traced run. A layer that does no
// work on a workload reports 0 — itself a prediction the doc records.
var perLayerMetrics = []metricDef{
	{"client.latency_us.p50", "us"},
	{"client.latency_us.p99", "us"},
	{"harness.run_ms", "ms"},
	{"sim.cell_us.p50", "us"},
	{"sim.cell_us.max", "us"},
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"sim.rpcs", "count"},
	{"workgen.next_ns.mean", "ns"},
	{"workgen.jobs", "count"},
	{"controller.tick_us.p50", "us"},
	{"controller.tick_us.p99", "us"},
	{"core.alloc_us.p50", "us"},
	{"rules.ops", "count"},
	{"gift.ctrl_msgs", "count"},
	{"transport.call_us.p50", "us"},
	{"transport.call_us.p99", "us"},
	{"transport.overhead_us.p50", "us"},
	{"transport.overhead_us.p99", "us"},
	{"oss.handle_us.p50", "us"},
	{"oss.handle_us.p99", "us"},
	{"oss.residence_us.p50", "us"},
	{"oss.residence_us.p99", "us"},
	{"oss.handle_us.reject.p50", "us"},
	{"gate.lock_wait_ns.p99", "ns"},
	{"admission.refused", "count"},
	{"admission.shed", "count"},
	{"admission.offered_mb", "MB"},
	{"device.busy_pct", "%"},
	{"go.allocs_per_cell", "count"},
	{"go.allocs_per_job", "count"},
	{"go.allocs_per_rpc", "count"},
	{"go.bytes_per_rpc", "B"},
	{"proc.cpu_us_per_rpc", "us"},
	{"go.gc_cycles", "count"},
	{"gen.late_us.p99", "us"},
	{"gen.sent", "count"},
	{"trace.overhead_pct", "%"},
	{"self_pct.harness", "%"},
	{"self_pct.sim", "%"},
	{"self_pct.workgen", "%"},
	{"self_pct.controller", "%"},
	{"self_pct.transport", "%"},
	{"self_pct.cluster", "%"},
}

// env is one invocation's settings.
type env struct {
	workload   string
	seed       int64
	seconds    time.Duration
	trace      bool
	breakCheck bool
	outDir     string
}

// A report collects one run's outcome: the operation counts, failed
// output checks, and metric values by name.
type report struct {
	attempted, failed int64
	failures          []string
	metrics           map[string]float64
}

// check records a failed output check when ok is false; a failure
// repeated on every pass is recorded once.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	if msg := fmt.Sprintf(format, args...); !slices.Contains(r.failures, msg) {
		r.failures = append(r.failures, msg)
	}
}

// workloads maps each workload name to its runner. A runner returns an
// error only when it could not run at all (no result is printed then).
var workloads = map[string]func(context.Context, *env, *report) error{
	"sim-grid":     runSimGrid,
	"sim-stream":   runSimStream,
	"oss-rpc-w1":   func(ctx context.Context, e *env, r *report) error { return runOSSRPC(ctx, e, r, 1) },
	"oss-rpc-w8":   func(ctx context.Context, e *env, r *report) error { return runOSSRPC(ctx, e, r, 8) },
	"oss-overload": runOSSOverload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var e env
	var secs float64
	var traceFlag int
	fl.StringVar(&e.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fl.Int64Var(&e.seed, "seed", 1, "workload seed")
	fl.Float64Var(&secs, "seconds", 10, "measurement time in seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fl.BoolVar(&e.breakCheck, "break-check", false, "corrupt each output check's expected value (the run must then fail)")
	fl.StringVar(&e.outDir, "out", ".bench_out", "directory for trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[e.workload]
	if !ok || secs <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	e.seconds = time.Duration(secs * float64(time.Second))
	e.trace = traceFlag == 1

	prov, err := json.Marshal(map[string]any{"provenance": provenanceOf(&e)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(prov))

	// Every phase is bounded by --seconds plus fixed set-up and drain
	// allowances; this deadline only catches a hung server.
	ctx, cancel := context.WithTimeout(context.Background(), 2*e.seconds+90*time.Second)
	defer cancel()
	rep := &report{metrics: make(map[string]float64)}
	if err := runner(ctx, &e, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	if !e.trace {
		rep.metrics["peak_rss_mb"] = peakRSSMB()
	}
	line, err := resultLine(rep, e.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one. A missing
// end-to-end metric is a bug in the workload, reported as an error.
func resultLine(rep *report, traced bool) ([]byte, error) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(rep.failures) == 0, max(rep.attempted, 1), rep.failed, out})
}

// provenanceOf records which machine, toolchain and source produced a
// result. The benchmark may run from a plain source tree, so the tree
// is also identified by a digest of its Go sources.
func provenanceOf(e *env) map[string]any {
	return map[string]any{
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"trace":      e.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"source_sha": sourceDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit HEAD names from the checkout's own .git
// directory, without running git or looking above the checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs") // absent: the ref is unknown
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// dot-directories such as build output), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// A procSnap is a point reading of the process counters the per-layer
// cost metrics difference.
type procSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	cpu            time.Duration
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, cpu: cpu}
}

// putProcCosts stores the process costs between two readings, divided
// per cell, per stream job and per RPC served (a zero divisor leaves
// that metric at 0).
func putProcCosts(m map[string]float64, a, b procSnap, cells, jobs, rpcs int64) {
	allocs := float64(b.mallocs - a.mallocs)
	if cells > 0 {
		m["go.allocs_per_cell"] = allocs / float64(cells)
	}
	if jobs > 0 {
		m["go.allocs_per_job"] = allocs / float64(jobs)
	}
	if rpcs > 0 {
		m["go.allocs_per_rpc"] = allocs / float64(rpcs)
		m["go.bytes_per_rpc"] = float64(b.bytes-a.bytes) / float64(rpcs)
		m["proc.cpu_us_per_rpc"] = float64(b.cpu-a.cpu) / 1e3 / float64(rpcs)
	}
	m["go.gc_cycles"] = float64(b.gcs - a.gcs)
}

// putSelfTimes stores each layer's share of the summed self time of
// all recorded spans — the per-layer budget — and writes the spans out
// as a Chrome trace.
func putSelfTimes(m map[string]float64, e *env, rec *recorder) error {
	self := selfTimes(rec.spans)
	var total int64
	for _, ns := range self {
		total += ns
	}
	for _, l := range traceLayers {
		if total > 0 {
			m["self_pct."+l] = 100 * float64(self[l]) / float64(total)
		}
	}
	path, err := rec.writeChrome(e.outDir, fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans kept, %d dropped; trace written to %s\n", len(rec.spans), rec.dropped, path)
	return nil
}

// putLatency records a workload's client-seen latency: one cell, one
// slice of stream jobs, one call, or one served RPC from its due time.
// Untraced runs print it on standard error; traced runs report it as
// client.latency_us.*, from their untraced half. It is not an
// end-to-end metric because it is not steady enough on a shared 2-core
// host (see the package doc).
func putLatency(rep *report, p50, p99 float64, n int) {
	rep.metrics["client.latency_us.p50"] = p50
	rep.metrics["client.latency_us.p99"] = p99
	fmt.Fprintf(os.Stderr, "perfbench: latency p50 %.1f us, p99 %.1f us (%d samples)\n", p50, p99, n)
}

// medianSetup runs build n times, each from a freshly collected heap,
// and returns the median duration; the caller tears down all but the
// fixture it keeps.
func medianSetup(n int, build func(last bool) error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(i == n-1); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	runtime.GC() // measuring starts from a clean heap too
	return median(ts), nil
}

// segment is the length of one measurement segment of the live
// workloads. Their rates and percentiles are medians over segments, so
// a transient stall on a shared host moves one segment, not the run.
const segment = 500 * time.Millisecond

// segmentsOf splits d into whole segments (at least one).
func segmentsOf(d time.Duration) int { return max(int((d+segment/2)/segment), 1) }

// errTimeout marks a phase cut short by the run's safety deadline.
var errTimeout = errors.New("run deadline exceeded")
