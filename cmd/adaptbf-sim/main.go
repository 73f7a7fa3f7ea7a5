// Command adaptbf-sim runs one simulation scenario and prints its
// timelines and summary.
//
// The workload comes from a workgen spec file in jobs mode (-workload;
// the same schema the matrix's -workload takes, see
// examples/workloads/) materialized at scale 1 on one OSS with seed 1,
// or, without one, a built-in two-job demo. Example spec:
//
//	{
//	  "spec_version": 1,
//	  "name": "two-jobs",
//	  "jobs": [
//	    {"id": "ior.n01", "nodes": 4, "procs": 16, "file_bytes": "1GiB"},
//	    {"id": "fb.n02", "nodes": 1, "procs": 2, "file_bytes": "1GiB",
//	     "burst_rpcs": 64, "burst_interval": "5s"}
//	  ]
//	}
//
// Usage:
//
//	adaptbf-sim [-workload spec.json] [-policy nobw|static|adaptbf|sfq|gift|edt] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"adaptbf"
	"adaptbf/internal/metrics"
	"adaptbf/internal/sim"
	"adaptbf/internal/workgen"
	"adaptbf/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptbf-sim: ")
	workloadPath := flag.String("workload", "", "workgen spec file, jobs mode (omit for the built-in two-job demo)")
	policyFlag := flag.String("policy", "adaptbf", "scheduling policy: nobw, static, adaptbf, sfq, gift, or edt")
	csvPath := flag.String("csv", "", "also write the timeline as CSV to this file")
	width := flag.Int("width", 72, "sparkline width")
	flag.Parse()

	pol, err := sim.ParsePolicy(*policyFlag)
	if err != nil {
		log.Fatal(err)
	}
	const mib = 1 << 20
	jobs := []workload.Job{
		workload.Continuous("small.n01", 1, 8, 256*mib),
		workload.Continuous("large.n02", 3, 8, 256*mib),
	}
	if *workloadPath != "" {
		spec, err := workgen.LoadSpec(*workloadPath)
		if err != nil {
			log.Fatal(err)
		}
		if spec.Stream != nil {
			log.Fatalf("%s is a stream spec; run it with adaptbf-matrix -workload", *workloadPath)
		}
		if jobs, err = spec.Materialize(1, 1, 1); err != nil {
			log.Fatal(err)
		}
	}
	scenario := adaptbf.Scenario{Policy: pol, Jobs: jobs, SampleRecords: pol == sim.AdapTBF}

	res, err := adaptbf.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy: %v   simulated: %.1fs   done: %v   RPCs served: %d\n\n",
		res.Policy, res.Elapsed.Seconds(), res.Done, res.ServedRPCs)
	metrics.RenderTimeline(os.Stdout, "throughput", res.Timeline, *width)
	fmt.Println()

	sum := res.Timeline.Summarize()
	rows := [][]string{}
	for _, job := range res.Timeline.Jobs() {
		js := sum.PerJob[job]
		finish := "-"
		if ft, ok := res.FinishTimes[job]; ok {
			finish = fmt.Sprintf("%.1f", ft.Seconds())
		}
		rows = append(rows, []string{job,
			metrics.FormatMiBps(js.AvgMiBps),
			fmt.Sprintf("%.0f", js.TotalMiB),
			finish,
		})
	}
	rows = append(rows, []string{"overall", metrics.FormatMiBps(sum.OverallMiBps),
		fmt.Sprintf("%.0f", float64(res.Timeline.GrandTotalBytes())/(1<<20)),
		fmt.Sprintf("%.1f", sum.Makespan.Seconds())})
	metrics.RenderTable(os.Stdout, []string{"job", "avg MiB/s", "total MiB", "finish (s)"}, rows)

	if res.Policy == sim.AdapTBF && len(res.TickTimes) > 0 {
		var tick, alloc time.Duration
		for i := range res.TickTimes {
			tick += res.TickTimes[i]
			alloc += res.AllocTimes[i]
		}
		n := time.Duration(len(res.TickTimes))
		fmt.Printf("\ncontroller: %d cycles, mean cycle %v (allocation %v), %d rule ops\n",
			len(res.TickTimes), tick/n, alloc/n, res.RuleOps)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := metrics.TimelineCSV(f, res.Timeline); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntimeline written to %s\n", *csvPath)
	}
}
