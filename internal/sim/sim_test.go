package sim

import (
	"testing"
	"time"

	"adaptbf/internal/workload"
)

const mib = 1 << 20

// smallScenario builds a quick bounded scenario: two continuous jobs with a
// 1:3 node ratio, 96 MiB per process (~2 s of simulated time).
func smallScenario(p Policy) Config {
	return Config{
		Policy: p,
		Jobs: []workload.Job{
			workload.Continuous("small.h1", 1, 4, 96*mib),
			workload.Continuous("large.h2", 3, 4, 96*mib),
		},
	}
}

func TestRunCompletesBoundedWorkload(t *testing.T) {
	for _, p := range []Policy{NoBW, StaticBW, AdapTBF} {
		res, err := Run(smallScenario(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Done {
			t.Fatalf("%v: workload did not finish", p)
		}
		// Conservation: every byte issued is served exactly once.
		want := int64(2 * 4 * 96 * mib)
		if got := res.Timeline.GrandTotalBytes(); got != want {
			t.Fatalf("%v: served %d bytes, want %d", p, got, want)
		}
		if len(res.FinishTimes) != 2 {
			t.Fatalf("%v: finish times %v", p, res.FinishTimes)
		}
	}
}

func TestNoBWSharesEqually(t *testing.T) {
	// Under FCFS with identical demand, node counts must not matter.
	res, err := Run(smallScenario(NoBW))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Timeline.Summarize()
	small := s.PerJob["small.h1"].AvgMiBps
	large := s.PerJob["large.h2"].AvgMiBps
	if ratio := large / small; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("NoBW bandwidth ratio = %.2f, want ~1 (priority-blind)", ratio)
	}
}

func TestAdapTBFFollowsPriority(t *testing.T) {
	// While both jobs are active and saturating, bandwidth must track the
	// 1:3 node ratio (Fig. 3(c) behaviour).
	res, err := Run(smallScenario(AdapTBF))
	if err != nil {
		t.Fatal(err)
	}
	// Compare throughput over the first half of the large job's run,
	// where both jobs are certainly active.
	smallTp := res.Timeline.Throughput("small.h1")
	largeTp := res.Timeline.Throughput("large.h2")
	half := int(res.FinishTimes["large.h2"] / res.Timeline.BinWidth() / 2)
	var smallSum, largeSum float64
	for i := 2; i < half; i++ { // skip the first windows (no rules yet)
		smallSum += smallTp[i]
		largeSum += largeTp[i]
	}
	if ratio := largeSum / smallSum; ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("AdapTBF bandwidth ratio = %.2f, want ~3 (priority 1:3)", ratio)
	}
}

func TestAdapTBFWorkConservingAfterFinish(t *testing.T) {
	// Once the large job finishes, the small job must absorb the freed
	// bandwidth (unlike Static BW). Compare its bandwidth before and
	// after the large job's finish.
	res, err := Run(smallScenario(AdapTBF))
	if err != nil {
		t.Fatal(err)
	}
	finish := int(res.FinishTimes["large.h2"] / res.Timeline.BinWidth())
	tp := res.Timeline.Throughput("small.h1")
	var before, after float64
	nb, na := 0, 0
	for i := 2; i < finish-1 && i < len(tp); i++ {
		before += tp[i]
		nb++
	}
	for i := finish + 2; i < len(tp)-1; i++ {
		after += tp[i]
		na++
	}
	if nb == 0 || na == 0 {
		t.Fatalf("degenerate spans: nb=%d na=%d finish=%d bins=%d", nb, na, finish, len(tp))
	}
	before /= float64(nb)
	after /= float64(na)
	if after < before*2 {
		t.Fatalf("small job not work-conserving after large finished: before %.1f, after %.1f MiB/s", before, after)
	}
}

func TestStaticBWWastesBandwidthAfterFinish(t *testing.T) {
	// The Static BW baseline keeps the small job capped at its share even
	// when it is alone — the inefficiency the paper attacks.
	resStatic, err := Run(smallScenario(StaticBW))
	if err != nil {
		t.Fatal(err)
	}
	resAdap, err := Run(smallScenario(AdapTBF))
	if err != nil {
		t.Fatal(err)
	}
	// Static must take meaningfully longer to drain the same bytes.
	if resStatic.Elapsed < resAdap.Elapsed*3/2 {
		t.Fatalf("static makespan %v not clearly worse than adaptive %v",
			resStatic.Elapsed, resAdap.Elapsed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, time.Duration) {
		res, err := Run(smallScenario(AdapTBF))
		if err != nil {
			t.Fatal(err)
		}
		return res.Timeline.GrandTotalBytes(), res.Elapsed
	}
	b1, e1 := run()
	b2, e2 := run()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("runs diverge: (%d, %v) vs (%d, %v)", b1, e1, b2, e2)
	}
}

func TestRecordsSampled(t *testing.T) {
	cfg := smallScenario(AdapTBF)
	cfg.SampleRecords = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Records.Names()
	if len(names) == 0 {
		t.Fatal("no record series collected")
	}
	found := false
	for _, n := range names {
		if n == "record:large.h2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("record series missing: %v", names)
	}
}

func TestBurstyJobRestsBetweenBursts(t *testing.T) {
	// A lone bursty job must show idle bins between bursts.
	cfg := Config{
		Policy: NoBW,
		Jobs: []workload.Job{
			workload.Bursty("burst.h", 1, 1, 16*mib, 64, 2*time.Second),
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("bursty job did not finish")
	}
	tp := res.Timeline.Throughput("burst.h")
	idle := 0
	for _, v := range tp {
		if v == 0 {
			idle++
		}
	}
	// 256 RPCs in bursts of 64 = 4 bursts with ~2s gaps: most bins idle.
	if idle < len(tp)/2 {
		t.Fatalf("only %d of %d bins idle; burst pacing broken", idle, len(tp))
	}
}

func TestDelayedStart(t *testing.T) {
	cfg := Config{
		Policy: NoBW,
		Jobs: []workload.Job{{
			ID:    "late.h",
			Nodes: 1,
			Procs: []workload.Pattern{workload.Delayed(workload.Pattern{FileBytes: 8 * mib}, 3*time.Second)},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Timeline.Throughput("late.h")
	for i := 0; i < 29 && i < len(tp); i++ { // 3s = 30 bins of 100ms
		if tp[i] != 0 {
			t.Fatalf("traffic at bin %d before 3s start delay", i)
		}
	}
	if res.FinishTimes["late.h"] < 3*time.Second {
		t.Fatal("job finished before it started")
	}
}

func TestStripingAcrossOSTs(t *testing.T) {
	cfg := Config{
		Policy: AdapTBF,
		OSTs:   2,
		Jobs: []workload.Job{
			workload.Continuous("stripe.h", 1, 4, 32*mib),
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("striped workload did not finish")
	}
	if len(res.DeviceBusy) != 2 {
		t.Fatalf("device stats for %d OSTs, want 2", len(res.DeviceBusy))
	}
	// Round-robin striping: both OSTs must have done real work.
	ratio := float64(res.DeviceBusy[0]) / float64(res.DeviceBusy[1])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("OST busy-time ratio %.2f, want ~1 (even striping)", ratio)
	}
	// Two OSTs double the backend: makespan should be well under the
	// single-OST time for the same volume.
	single, err := Run(Config{Policy: AdapTBF, Jobs: cfg.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed >= single.Elapsed {
		t.Fatalf("2 OSTs (%v) not faster than 1 (%v)", res.Elapsed, single.Elapsed)
	}
}

func TestUnboundedRequiresDuration(t *testing.T) {
	cfg := Config{
		Policy: NoBW,
		Jobs: []workload.Job{{
			ID: "inf.h", Nodes: 1,
			Procs: []workload.Pattern{{}}, // unbounded
		}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unbounded workload without Duration accepted")
	}
	cfg.Duration = 2 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done {
		t.Fatal("unbounded workload reported Done")
	}
	if res.Timeline.GrandTotalBytes() == 0 {
		t.Fatal("unbounded workload served nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Jobs: []workload.Job{{ID: "", Nodes: 1, Procs: []workload.Pattern{{FileBytes: 1}}}}},
		{Jobs: []workload.Job{workload.Continuous("a.h", 1, 1, 1)}, MaxTokenRate: -1},
		{Jobs: []workload.Job{workload.Continuous("a.h", 1, 1, 1)}, Period: -1},
		{Jobs: []workload.Job{workload.Continuous("a.h", 1, 1, 1)}, NetDelay: -1},
		{Jobs: []workload.Job{workload.Continuous("a.h", 1, 1, 1)}, OSTs: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOverheadSamplesCollected(t *testing.T) {
	res, err := Run(smallScenario(AdapTBF))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllocTimes) == 0 || len(res.TickTimes) == 0 {
		t.Fatal("no controller overhead samples")
	}
	if res.RuleOps == 0 {
		t.Fatal("no rule operations recorded")
	}
	// The paper reports <30µs per job for allocation; even with test
	// overhead a 2-job allocation should be far under a millisecond.
	var total time.Duration
	for _, d := range res.AllocTimes {
		total += d
	}
	if avg := total / time.Duration(len(res.AllocTimes)); avg > 5*time.Millisecond {
		t.Fatalf("average allocation time %v implausibly slow", avg)
	}
}

func TestUtilizationReported(t *testing.T) {
	res, err := Run(smallScenario(NoBW))
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization(0)
	if u < 0.5 || u > 1.01 {
		t.Fatalf("utilization %.2f, want near 1 under saturation", u)
	}
	if res.Utilization(5) != 0 || res.Utilization(-1) != 0 {
		t.Fatal("out-of-range utilization not zero")
	}
}

func TestPolicyString(t *testing.T) {
	if NoBW.String() != "No BW" || StaticBW.String() != "Static BW" || AdapTBF.String() != "AdapTBF" {
		t.Fatal("policy names wrong")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy name empty")
	}
}

// TestParsePolicies: every policy round-trips through Flag and
// ParsePolicy, and the aliases name the policies they stand for.
func TestParsePolicies(t *testing.T) {
	for p := NoBW; p <= EDT; p++ {
		if p.Flag() == "" {
			t.Fatalf("%v has no flag name", p)
		}
		if got, err := ParsePolicy(p.Flag()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.Flag(), got, err, p)
		}
	}
	aliases := map[string]Policy{
		"":        AdapTBF,
		"AdapTBF": AdapTBF,
		" gift ":  GIFT,
		"none":    NoBW,
		"fcfs":    NoBW,
		"sfqd":    SFQ,
		"SFQ(D)":  SFQ,
	}
	for in, want := range aliases {
		if got, err := ParsePolicy(in); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if Policy(99).Flag() != "" {
		t.Error("unknown policy has a flag name")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestLatenciesRecorded(t *testing.T) {
	res, err := Run(smallScenario(NoBW))
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"small.h1", "large.h2"} {
		if res.Latencies.Count(job) == 0 {
			t.Fatalf("no latency samples for %s", job)
		}
		// Latency must at least cover two network hops plus one service.
		if got := res.Latencies.Percentile(job, 0); got < 200*time.Microsecond {
			t.Fatalf("%s min latency %v below network floor", job, got)
		}
	}
	// Total samples == total RPCs served.
	total := res.Latencies.Count("small.h1") + res.Latencies.Count("large.h2")
	if uint64(total) != res.ServedRPCs {
		t.Fatalf("latency samples %d != served RPCs %d", total, res.ServedRPCs)
	}
}

func TestBurstLatencyProtectedByAdapTBF(t *testing.T) {
	// §IV-E in latency form: a bursty high-priority job competing with a
	// continuous low-priority hog must see far lower RPC latency under
	// AdapTBF than under FCFS, where its bursts queue behind the hog's
	// backlog.
	jobs := []workload.Job{
		workload.Bursty("burst.h1", 3, 1, 32*mib, 32, 2*time.Second),
		workload.Continuous("hog.h2", 1, 16, 64*mib),
	}
	p99 := map[Policy]time.Duration{}
	for _, pol := range []Policy{NoBW, AdapTBF} {
		res, err := Run(Config{Policy: pol, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		p99[pol] = res.Latencies.Percentile("burst.h1", 99)
	}
	// The first burst lands before any rule exists and pays the full FCFS
	// queueing cost under both policies, so p99 improves by ~2× rather
	// than the steady-state factor; demand at least a 40% cut.
	if p99[AdapTBF] > p99[NoBW]*6/10 {
		t.Fatalf("burst p99 under AdapTBF (%v) not clearly below NoBW (%v)",
			p99[AdapTBF], p99[NoBW])
	}
}

func TestSFQPolicyProportional(t *testing.T) {
	// SFQ(D) is weight-proportional and work-conserving: the 1:3 node
	// ratio must show in service while both jobs run.
	res, err := Run(smallScenario(SFQ))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("SFQ run did not finish")
	}
	smallTp := res.Timeline.Throughput("small.h1")
	largeTp := res.Timeline.Throughput("large.h2")
	half := int(res.FinishTimes["large.h2"] / res.Timeline.BinWidth() / 2)
	var s1, s2 float64
	for i := 1; i < half; i++ {
		s1 += smallTp[i]
		s2 += largeTp[i]
	}
	if ratio := s2 / s1; ratio < 2.2 || ratio > 4 {
		t.Fatalf("SFQ bandwidth ratio = %.2f, want ~3 (weights 1:3)", ratio)
	}
}

func TestSFQUncappedVersusAdapTBFCeiling(t *testing.T) {
	// The structural difference between the fair-queueing family and
	// TBF-based control: SFQ(D) is purely work-conserving — it always
	// runs the device flat out — while AdapTBF (like Lustre's TBF)
	// enforces the configured token ceiling T_i even when the device
	// could go faster. The ceiling is the feature: it is what makes
	// per-job rates enforceable and predictable.
	jobs := []workload.Job{
		workload.Continuous("a.h1", 1, 8, 128*mib),
		workload.Continuous("b.h2", 1, 8, 128*mib),
	}
	// Device sustains well above the 300-token ceiling at 16 streams.
	run := func(pol Policy) float64 {
		res, err := Run(Config{Policy: pol, Jobs: jobs, MaxTokenRate: 300})
		if err != nil {
			t.Fatal(err)
		}
		return res.Timeline.Summarize().OverallMiBps
	}
	sfqBW, adapBW := run(SFQ), run(AdapTBF)
	if sfqBW < 400 {
		t.Errorf("SFQ aggregate %.0f MiB/s; want device-bound (>400), it has no ceiling", sfqBW)
	}
	if adapBW > 330 || adapBW < 250 {
		t.Errorf("AdapTBF aggregate %.0f MiB/s; want ≈ the 300-token ceiling", adapBW)
	}
	// And the ceiling is shared fairly: both jobs get ~half of it.
	res, err := Run(Config{Policy: AdapTBF, Jobs: jobs, MaxTokenRate: 300})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Timeline.Summarize()
	ra, rb := sum.PerJob["a.h1"].AvgMiBps, sum.PerJob["b.h2"].AvgMiBps
	if ratio := ra / rb; ratio < 0.85 || ratio > 1.18 {
		t.Errorf("equal-priority split under ceiling = %.2f, want ~1", ratio)
	}
}

func TestGIFTIsPriorityUnaware(t *testing.T) {
	// The paper's §IV-C critique made testable: GIFT splits bandwidth
	// equally per application regardless of compute allocation, so the
	// 1:3 node ratio that AdapTBF honors disappears.
	res, err := Run(smallScenario(GIFT))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("GIFT run did not finish")
	}
	smallTp := res.Timeline.Throughput("small.h1")
	largeTp := res.Timeline.Throughput("large.h2")
	n := len(smallTp) / 2
	var s1, s2 float64
	for i := 2; i < n; i++ {
		s1 += smallTp[i]
		s2 += largeTp[i]
	}
	if ratio := s2 / s1; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("GIFT bandwidth ratio = %.2f, want ~1 (priority-unaware)", ratio)
	}
}

func TestGIFTCouponsRewardThrottledJobs(t *testing.T) {
	// A job that cedes its share early redeems coupons when it returns:
	// its post-return bandwidth briefly exceeds the plain equal share.
	jobs := []workload.Job{
		{
			ID:    "ceder.h1",
			Nodes: 1,
			Procs: append(
				[]workload.Pattern{{FileBytes: 4 * mib, BurstRPCs: 4, BurstInterval: 500 * time.Millisecond}},
				workload.Replicate(workload.Delayed(workload.Pattern{FileBytes: 48 * mib}, 3*time.Second), 4)...,
			),
		},
		workload.Continuous("taker.h2", 1, 8, 256*mib),
	}
	res, err := Run(Config{Policy: GIFT, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Timeline.Throughput("ceder.h1")
	// Equal share is ~250 MiB/s; with redemption the ceder must exceed it
	// somewhere shortly after its return at t=3s.
	peak := 0.0
	for i := 31; i < 45 && i < len(tp); i++ {
		if tp[i] > peak {
			peak = tp[i]
		}
	}
	if peak <= 260 {
		t.Fatalf("ceder post-return peak %.0f MiB/s never exceeded the equal share (~250); coupons not redeemed", peak)
	}
}

func TestGIFTCentralizedCouponsSpanOSTs(t *testing.T) {
	// Coupons earned on one storage target are redeemable on another —
	// the centralized design point. With 2 OSTs and striped jobs the run
	// must simply complete and conserve bytes; the coupon bank unit tests
	// cover the arithmetic.
	cfg := Config{
		Policy: GIFT,
		OSTs:   2,
		Jobs: []workload.Job{
			workload.Continuous("a.h1", 1, 4, 32*mib),
			workload.Continuous("b.h2", 1, 4, 32*mib),
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Timeline.GrandTotalBytes() != 8*32*mib {
		t.Fatalf("GIFT multi-OST run incomplete: done=%v bytes=%d", res.Done, res.Timeline.GrandTotalBytes())
	}
}
