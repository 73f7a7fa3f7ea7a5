package harness

import (
	"context"
	"os"
	"testing"
	"time"

	"adaptbf/internal/sim"
	"adaptbf/internal/workload"
)

// TestMain removes the adaptbf-node build the remote tests share, so a
// test run leaves no binary behind.
func TestMain(m *testing.M) {
	code := m.Run()
	removeNodeBuild()
	os.Exit(code)
}

// pacedScenario is a bounded two-job workload paced in bursts so a cell
// spans many controller epochs: 2 jobs × 2 procs × 16 RPCs of 64 KiB,
// 4 RPCs every 30ms per proc.
func pacedScenario() Scenario {
	return Scenario{
		Name: "paced",
		Jobs: func(CellParams) []workload.Job {
			pat := workload.Pattern{FileBytes: 16 * 64 << 10, RPCBytes: 64 << 10, BurstRPCs: 4, BurstInterval: 30 * time.Millisecond}
			procs := []workload.Pattern{pat, pat}
			return []workload.Job{
				{ID: "small.n01", Nodes: 1, Procs: procs},
				{ID: "big.n04", Nodes: 4, Procs: procs},
			}
		},
	}
}

// TestLiveRemoteParity: the in-process and subprocess launchers run the
// same cluster.Node through the same runLiveCell, so every policy reports
// the same shape on both — the same served RPCs, a finished cell, one
// device-busy slot per OSS, and for GIFT the coordinator walk times and
// control messages from the nodes' final stats.
func TestLiveRemoteParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	m := Matrix{
		Scenarios:    []Scenario{pacedScenario()},
		Policies:     []sim.Policy{sim.NoBW, sim.StaticBW, sim.SFQ, sim.AdapTBF, sim.GIFT, sim.EDT},
		OSSes:        []int{2},
		MaxTokenRate: 4000,
		Period:       10 * time.Millisecond,
		Duration:     30 * time.Second,
	}
	var results [2]*MatrixResult
	for i, be := range []Backend{&ClusterBackend{Device: liveDevice()}, &RemoteBackend{Device: liveDevice()}} {
		res, err := Run(context.Background(), m, WithBackend(be), WithCellTimeout(time.Minute))
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		results[i] = res
	}
	for ci, lc := range results[0].Cells {
		rc := results[1].Cells[ci]
		for _, cr := range []CellResult{lc, rc} {
			r := cr.Result
			if !r.Done {
				t.Errorf("%s %v: cell did not finish", cr.Backend, cr.Cell)
			}
			if len(r.DeviceBusy) != 2 || r.DeviceBusy[0] <= 0 || r.DeviceBusy[1] <= 0 {
				t.Errorf("%s %v: device busy %v", cr.Backend, cr.Cell, r.DeviceBusy)
			}
			if cr.Cell.Policy == sim.GIFT {
				if len(r.TickTimes) == 0 {
					t.Errorf("%s %v: no coordinator walk times", cr.Backend, cr.Cell)
				}
				if r.CtrlMsgs < 2*int64(len(r.TickTimes)) {
					t.Errorf("%s %v: CtrlMsgs %d for %d walks, want >= 2 per walk", cr.Backend, cr.Cell, r.CtrlMsgs, len(r.TickTimes))
				}
			}
		}
		if lc.Result.ServedRPCs != rc.Result.ServedRPCs {
			t.Errorf("%v: served live=%d remote=%d", lc.Cell, lc.Result.ServedRPCs, rc.Result.ServedRPCs)
		}
	}
}

// TestRemoteTeardownWithinDrainBound: a remote cell closes its job
// connections before stopping the nodes, so their graceful drain (5s)
// has nothing to wait for and a short cell finishes well inside it.
func TestRemoteTeardownWithinDrainBound(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	b := &RemoteBackend{Device: liveDevice()}
	if _, err := b.bin(); err != nil { // keep the build out of the timing
		t.Fatal(err)
	}
	m := Matrix{
		Scenarios:    []Scenario{liveScenario()},
		Policies:     []sim.Policy{sim.NoBW},
		OSSes:        []int{2},
		MaxTokenRate: 4000,
		Period:       20 * time.Millisecond,
		Duration:     30 * time.Second,
	}
	start := time.Now()
	res, err := Run(context.Background(), m, WithBackend(b), WithCellTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e >= 5*time.Second {
		t.Fatalf("remote cell took %v, at least the node drain bound", e)
	}
	if !res.Cells[0].Result.Done {
		t.Fatal("remote cell did not finish")
	}
}
