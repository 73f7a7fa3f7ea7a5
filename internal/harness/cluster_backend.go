package harness

import (
	"context"
	"fmt"
	"time"

	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/obs"
	"adaptbf/internal/transport"
)

// ClusterBackend runs cells as live wall-clock deployments in this
// process: per cell it starts Cell.OSSes cluster.Nodes — each one
// storage server with its own dispatcher goroutine, request gate, and
// policy machinery (under AdapTBF its own independent controller) — plus
// a GIFT coordinator Node for GIFT cells, connects one cluster.JobRunner
// per job to every node over a faulted transport.Pipe, and executes the
// scenario's workload as real concurrent RPC traffic. This is the
// paper's Figure 2 deployment driving the same Matrix the simulator
// sweeps.
//
// It is the in-process launcher of the one live cell path that
// RemoteBackend also runs: the Nodes, their policy wiring, the
// server-side fault injection, and the teardown fold are the ones an
// adaptbf-node process runs, so live and remote cells differ only in
// the process boundary. What it cannot do is crash a node — there is no
// process to kill — so it rejects crash/restart faults.
//
// Results are reported in OSS time — wall-clock scaled by Speedup — so an
// accelerated run's makespans, latencies, and MiB/s stay commensurate
// with the configured token rates and with simulator cells. Live cells
// are inherently nondeterministic (scheduling, timers): they never
// partake in golden fingerprints, and CellResult.Backend = "live" marks
// them in every report.
type ClusterBackend struct {
	// Device parameterizes each OSS's backing store. Zero means
	// device.Default() — the same SSD-class target simulator cells use.
	Device device.Params
	// Speedup accelerates the modeled device and controller clocks
	// (cluster.OSSConfig.Speedup): a Speedup of 50 runs a 30-minute
	// workload in ~36 wall seconds. Default 1.
	Speedup float64
	// BucketDepth is the per-rule TBF bucket depth. Wall-clock runs need
	// token deadlines well above Go timer jitter or depth-capped buckets
	// discard tokens on every oversleep; the default of 16 (vs the
	// simulator's Lustre-default 3) absorbs that jitter.
	BucketDepth float64
	// TBFShards, when > 1, stripes each OSS's token-bucket gate across
	// that many locks keyed by flow hash (cluster.ShardedTBF) instead
	// of the single-lock gate, for the TBF-family policies (NoBW,
	// StaticBW, AdapTBF, GIFT). The gate-contention study sweeps this.
	TBFShards int
}

// Name reports "live".
func (b *ClusterBackend) Name() string { return "live" }

// RunCell executes one live cell on in-process nodes.
func (b *ClusterBackend) RunCell(ctx context.Context, spec CellSpec) (CellOutcome, error) {
	if spec.Faults.CrashOSS {
		return CellOutcome{}, fmt.Errorf("harness: the in-process live backend has no OSS process to crash; use -backend remote for crash/restart faults")
	}
	return runLiveCell(ctx, spec, liveCell{
		device:      b.Device,
		speedup:     b.Speedup,
		bucketDepth: b.BucketDepth,
		tbfShards:   b.TBFShards,
		launch:      &pipeLauncher{},
	})
}

// pipeLauncher starts a cell's nodes in this process; every client,
// including each GIFT agent's coordinator link, reaches a node through
// Node.Pipe.
type pipeLauncher struct {
	coord *cluster.Node
	osses []*cluster.Node
}

func (l *pipeLauncher) start(coord *cluster.NodeConfig, osses []cluster.NodeConfig) error {
	if coord != nil {
		n, err := cluster.NewNode(*coord)
		if err != nil {
			return err
		}
		l.coord = n
	}
	for _, cfg := range osses {
		if l.coord != nil {
			cfg.Coord = l.coord.Pipe()
		}
		n, err := cluster.NewNode(cfg)
		if err != nil {
			return err
		}
		l.osses = append(l.osses, n)
	}
	return nil
}

func (l *pipeLauncher) dial(i int) transport.Caller { return l.osses[i].Pipe() }

func (l *pipeLauncher) injectFaults(time.Duration, *obs.CellObs) func() { return func() {} }

func (l *pipeLauncher) stop() ([]cluster.NodeStats, cluster.NodeStats) {
	stats := make([]cluster.NodeStats, len(l.osses))
	for i, n := range l.osses {
		stats[i] = n.Close()
	}
	var coord cluster.NodeStats
	if l.coord != nil {
		coord = l.coord.Close()
	}
	return stats, coord
}

// kill is stop: an in-process node has no faster way down than its
// drain, which waits on no connection of its own.
func (l *pipeLauncher) kill() { l.stop() }
