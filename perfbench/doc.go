// Command perfbench is the repository benchmark. It runs one of five
// workloads against the public functions of the simulator and the live
// storage server, checks the outputs, and prints every end-to-end
// metric (untraced run) or every per-layer metric (traced run) as one
// JSON line. It times each layer from outside, around its own calls into
// harness, sim, workgen, cluster, controller, transport and admission;
// no program code is instrumented for it.
//
// Run it from the repository root through its runner, which builds it
// from the source tree into .bench_build/:
//
//	python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 10 --trace 0
//
// The first output line records provenance: CPU model, nproc,
// GOMAXPROCS, Go version, git commit (read from .git when present), a
// digest of every Go source file, the seed and the run length. The last
// line is the result: {"correct", "attempted", "failed", "metrics"}. A
// failed output check prints its reason on standard error, the result
// with "correct": false, and exits 1. --break-check corrupts every
// check's expected value, so each workload's checks can be shown to
// fail.
//
// # Workloads
//
// The seed generates every input; the same seed gives the same inputs.
//
//   - sim-grid: the golden grid back to back through harness.Run with
//     one worker per CPU: DefaultScenarios × {NoBW, Static, AdapTBF, SFQ,
//     GIFT} × scale 64 × OSS {1, 2} × the seed — 30 cells. This is what
//     the CI gate, every study and the golden fingerprint run. des, sim,
//     tbf, core, rules, sfq, gift and device do all the work; transport,
//     workgen and admission do none.
//   - sim-stream: one poisson-mix stream cell at scale 1 on 2 OSSes
//     under AdapTBF, repeated: 40,000 jobs, about 0.98M RPCs and 3.2M DES
//     events at seed 1. workgen draws, the streaming slot pool and the
//     per-RPC digest folds do most of the work, and the DES heap is far
//     deeper than on the grid, which never calls workgen.
//   - oss-rpc-w1, oss-rpc-w8: a closed loop against one cluster.OSS
//     behind transport.Serve on loopback TCP. The AdapTBF controller
//     ticks every Δt = 100 ms with MaxTokenRate far above capacity, so
//     rules never throttle; the device costs next to nothing. Eight
//     tenants send 4 KiB RPCs, alternating read and write, over nproc
//     connections, each holding 1 (w1) or 8 (w8, Lustre's default
//     max_rpcs_in_flight) calls in flight. Only the server's CPU path
//     costs anything: gob codec, Handle, gate lock, dispatcher, reply.
//     A closed loop matches HPC clients waiting on bounded windows; an
//     open-loop generator on a small host wakes ~1 ms late, which would
//     swamp a ~40 µs RPC.
//   - oss-overload: an open loop of 1 MiB RPCs with Poisson arrivals at
//     10,000 RPC/s, twice the token pool, against the default SSD device
//     at Speedup 10, AdapTBF with MaxTokenRate 500 and Δt = 100 ms, and
//     deadline-queue:limit=256,deadline=250ms admission. Four tenants of
//     1, 2, 4 and 8 nodes offer equal shares, one connection each. This
//     is the only workload where tokens bind, the controller
//     redistributes, the dispatcher paces the device and admission
//     refuses and sheds: it asks the paper's fairness question under
//     overload. oss-rpc never rejects a request.
//
// w1 and w8 are two workloads because every workload reports every
// end-to-end metric under one name.
//
// # End-to-end metrics
//
// Untraced runs print these five on every workload:
//
//	metric         sim-grid                    sim-stream              oss-rpc-w1/w8           oss-overload
//	setup_s        median of 21 set-ups, each from a collected heap: the matrix and one grid pass (sim-grid) or
//	               one scale-64 stream cell (sim-stream); OSS, listener, dials, 8 warm-up calls per tenant and
//	               connection, one tick (oss-*)
//	ops_per_s      cells per pass ÷ fast-      40,000 jobs ÷ fast-     fast quartile of 0.5 s  RPCs served in the
//	               quartile pass time          quartile cell time      segment rates           window ÷ window
//	peak_rss_mb    peak resident memory of the process, so work moved into buffers shows
//	goodput_pct    served ÷ offered bytes: 100 unless admission turns work away
//	fairness_jain  node-weighted Jain index: per cell over each job's  over tenants' served bytes ÷ nodes
//	               (stream tenant's) bandwidth ÷ nodes, mean of cells  inside the window
//
// The fast quartile (25th-percentile time, 75th-percentile rate) keeps
// another tenant's bursts on a shared host out of ops_per_s: they slow
// some samples, while a slower program slows every sample (see
// fastQuartile). oss-overload's rate is set by its server, not by the
// host, and counts the whole window.
//
// Admission refusals and sheds on oss-overload are the server's
// answers, not failed operations: they show in goodput_pct and in the
// traced admission counts, while "failed" counts calls that errored.
//
// Latency is measured but is not an end-to-end metric. The client-seen
// latency of one operation — a cell's wall time, a 100-job stream
// slice, a call, a served RPC from its due time — is printed on
// standard error by every untraced run and reported as
// client.latency_us.p50/.p99 by traced runs. Over ten 10-second runs
// per workload on a shared 2-core VM, the p99's spread (interquartile
// range over median) was 20-49% on sim-stream and oss-rpc-*, and the
// served p50 on oss-overload 22% (at Speedup 1 it turns bimodal, 89%),
// past the largest bound (0.25) a metric may carry. On the closed loops
// ops_per_s is concurrency ÷ latency, so the bounded throughput still
// gates latency there. A reported p99 always has at least ten samples
// beyond it, or the run fails.
//
// Per-workload names for these figures map onto them as follows:
// cells_per_s = ops_per_s on sim-grid; stream_jobs_per_s = ops_per_s on
// sim-stream; rpc_per_s.w1/.w8 = ops_per_s on oss-rpc-w1/-w8;
// served_rpc_per_s = ops_per_s on oss-overload; rpc_p50_us.w*,
// rpc_p99_us.w*, served_p50_ms and served_p99_ms = client.latency_us.*
// on the same workloads.
//
// # Measurement hygiene
//
// Set-up, timed as setup_s, ends before measuring starts: on the live
// workloads every connection is dialed, has completed warm-up calls,
// and one controller tick has run. oss-overload then runs its open loop
// for one second more before the window opens. Within the window,
// offered work is what fell due in it and served work what completed
// in it: counting the backlog drained after sending stops would hand
// every tenant the same count and hide starvation. Each open-loop RPC
// is timed from its due time, so a late generator shows as latency;
// traced runs report how late it ran (gen.late_us.p99).
//
// # Output checks
//
//   - sim-grid: the matrix fingerprint equals the golden constant at
//     seed 1 and is identical on every pass at any seed.
//   - sim-stream: each cell completes the spec's 40,000 jobs, its
//     latency digest holds one sample per served RPC, and every
//     repetition has the first one's fingerprint.
//   - oss-rpc: every call succeeds and every reply carries the
//     request's byte count.
//   - all oss-*: served + refused + shed = sent with no errors (ROADMAP's
//     conservation invariant), and the client's counts equal
//     OSS.AdmissionStats; no controller tick fails.
//   - traced oss-*: every client call matches one server record (by
//     connection and seq), and the server's interval lies inside it.
//
// # Traced runs
//
// --trace 1 measures the first half of --seconds untraced (process
// costs, and the baseline for trace.overhead_pct) and the second half
// traced. It records spans at its own calls into each layer — name,
// start, end, parent, and a request id shared by all spans of one RPC
// or cell — keeps them in memory, and writes the first 50,000 to
// .bench_out/<workload>-seed<n>.trace.json in the obs.WriteChromeTrace
// format at exit. On oss-*, transport.call spans the client's DoCtx
// until its reply; oss.residence spans Handle entry to the reply
// callback; oss.handle spans the Handle call. So per RPC
// transport.overhead = transport.call - oss.residence. self_pct.<layer>
// is each layer's share of the summed self time (a span's duration
// minus the union of its children's).
//
// Which per-layer metric should move which end-to-end metric, and
// where each layer should show no change:
//
//	layer (module)        per-layer metrics                               should move
//	client                client.latency_us.p50/.p99                      (the workload's latency; see above)
//	harness               harness.run_ms                                  ops_per_s on sim-grid
//	sim, des              sim.cell_us.p50/.max, des.events,               ops_per_s on sim-grid and sim-stream;
//	                      des.events_per_s, sim.rpcs                      no effect on oss-*
//	workgen               workgen.next_ns.mean, workgen.jobs              ops_per_s on sim-stream only;
//	                                                                      0 (no change) on sim-grid
//	controller, core,     controller.tick_us.p50/.p99, core.alloc_us.p50, ops_per_s on sim-grid; fairness_jain
//	rules, gift           rules.ops, gift.ctrl_msgs                       and served p99 on oss-overload
//	transport             transport.call_us.p50/.p99,                     every metric on oss-rpc-*;
//	                      transport.overhead_us.p50/.p99                  0 (no change) on sim-*
//	cluster (OSS)         oss.handle_us.p50/.p99, oss.residence_us.p50/   client p99 on oss-rpc-w8 and
//	                      .p99, oss.handle_us.reject.p50                  served latency on oss-overload
//	cluster (gate)        gate.lock_wait_ns.p99 (obs registry)            ops_per_s on oss-rpc-w8
//	admission             admission.refused, .shed, .offered_mb           goodput_pct on oss-overload
//	device                device.busy_pct                                 ops_per_s on oss-overload
//	process               go.allocs_per_cell/_job/_rpc, go.bytes_per_rpc, allocs and CPU per RPC → ops_per_s on
//	                      proc.cpu_us_per_rpc, go.gc_cycles               oss-rpc-w1; allocs per cell → sim-grid
//	generator             gen.late_us.p99, gen.sent                       validity of oss-overload's open loop
//
// Counts from the simulator (des.events, sim.rpcs, rules.ops,
// gift.ctrl_msgs) are per pass or per cell; on oss-* gift.ctrl_msgs
// counts the simulator's coordination messages for the benchmark's own
// ticks (two per tick plus one per rule operation). A layer that does no
// work on a workload reports 0.
//
// # Baseline: starvation under overload
//
// On oss-overload the server serves far less than it could and starves
// the small jobs. Medians of ten 10-second runs on a 2-core Intel Xeon
// VM with go1.24.0: 1,893 of the 10,000 offered RPC/s are served (38%
// of the 5,000 tokens/s pool; the device is busy ~31% of the time),
// goodput is 19.0% and fairness_jain 0.421. The 1- and 2-node tenants
// get none of their RPCs served inside the window; the 4- and 8-node
// tenants get ~41% and ~33%. Served RPCs see ~1.3-2.0 ms at p50 and
// ~11-16 ms at p99 from their due times, while shed RPCs sit in the
// gate for up to ~150 ms of wall time (1.5 s of OSS time, six times the
// 250 ms deadline), because a deadline is only checked at dispatch.
// This is the behaviour of the code as it stands, recorded as measured;
// the workload is not tuned to hide it.
package main
