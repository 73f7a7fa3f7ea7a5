package harness

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptbf/internal/cluster"
	"adaptbf/internal/device"
	"adaptbf/internal/obs"
	"adaptbf/internal/transport"
)

// RemoteBackend runs cells as separate OS processes over TCP: per cell
// it spawns one adaptbf-node process per OSS (plus one coordinator
// process for GIFT), waits for each to answer its health probe, and
// drives the scenario's workload from in-harness job runners whose
// targets are reconnecting clients — so an OSS process crash mid-run is
// a transport error with a retry budget, not a wedged cell. This is the
// paper's deployment claim made literal: the decentralization property
// crosses a real process boundary and a real (if loopback) network.
//
// It is the subprocess launcher of the one live cell path that
// ClusterBackend also runs: each process is the cluster.Node an
// in-process cell starts, configured by the same cluster.NodeConfig
// rendered as flags, and its final cluster.NodeStats (device busy time,
// GIFT walk accounting) arrive on its STATS drain line — so a
// crashed-and-not-restarted node contributes zeros. Only this launcher
// realizes the crash/restart fault: a SIGKILLed node process and a
// respawn on the same address.
//
// The node binary is built at most once per process (go build
// adaptbf/cmd/adaptbf-node, resolved via the module root) unless
// NodeBin points at a prebuilt one. Like ClusterBackend, results are OSS
// time (wall-clock × Speedup), inherently nondeterministic, and never
// fingerprinted.
type RemoteBackend struct {
	// NodeBin is a prebuilt adaptbf-node binary. Empty means build one
	// (cached per process) from the enclosing module.
	NodeBin string
	// Device parameterizes each node's backing store. Zero means
	// device.Default().
	Device device.Params
	// Speedup accelerates modeled device and controller clocks. Default 1.
	Speedup float64
	// BucketDepth is the per-rule TBF bucket depth (default 16, as live).
	BucketDepth float64
	// RPCTimeout bounds each RPC attempt against a node (default 15s).
	RPCTimeout time.Duration
	// Retries is the per-RPC transport-failure retry budget (default 2;
	// raised automatically to cover a crash/restart gap).
	Retries int
	// Logf, when set, receives readiness lines as nodes answer their
	// health probe (role, policy, Go version, obs status) — the
	// spawner's view of what it actually addressed. Calls may come from
	// concurrent cells; plain log.Printf / testing.T.Logf are fine.
	Logf func(format string, args ...any)
}

// Name reports "remote".
func (b *RemoteBackend) Name() string { return "remote" }

// remoteReadyTimeout bounds how long a spawned node gets to print its
// ADDR line and answer its first health probe.
const remoteReadyTimeout = 15 * time.Second

// nodeBuild caches the adaptbf-node binary built for RemoteBackends
// without a NodeBin: one build per process, removed by
// removeNodeBuild.
var nodeBuild struct {
	once sync.Once
	dir  string
	bin  string
	err  error
}

// bin resolves the node binary, building it once per process if needed.
func (b *RemoteBackend) bin() (string, error) {
	if b.NodeBin != "" {
		return b.NodeBin, nil
	}
	nodeBuild.once.Do(func() {
		nodeBuild.bin, nodeBuild.err = buildNode()
	})
	return nodeBuild.bin, nodeBuild.err
}

// buildNode builds adaptbf-node into a fresh temp dir, removing the dir
// again if the build fails.
func buildNode() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp("", "adaptbf-node-")
	if err != nil {
		return "", err
	}
	out := filepath.Join(dir, "adaptbf-node")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/adaptbf-node")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("harness: building adaptbf-node: %v\n%s", err, msg)
	}
	nodeBuild.dir = dir
	return out, nil
}

// removeNodeBuild deletes the cached node build, if any. Call it only
// once no RemoteBackend will run again in this process.
func removeNodeBuild() {
	if nodeBuild.dir != "" {
		os.RemoveAll(nodeBuild.dir)
	}
}

// nodeArgs renders a node config as adaptbf-node flags — the subprocess
// form of cluster.NewNode's input. coordAddr is the GIFT coordinator's
// listen address ("" without one).
func nodeArgs(cfg cluster.NodeConfig, coordAddr string) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := cfg.OSS.Device
	args := []string{
		"-role", cfg.Role,
		"-listen", "127.0.0.1:0",
		"-policy", cfg.Policy,
		"-rate", f(cfg.MaxRate),
		"-period", cfg.Period.String(),
		"-drain", "5s",
		"-depth", f(cfg.OSS.BucketDepth),
		"-speedup", f(cfg.OSS.Speedup),
		"-sfq-depth", strconv.Itoa(cfg.SFQDepth),
		"-dev-bps", f(d.BytesPerSec),
		"-dev-overhead", d.PerRPCOverhead.String(),
		"-dev-penalty", d.ConcurrencyPenalty.String(),
	}
	if !cfg.Fault.IsZero() {
		args = append(args, "-faults", cfg.Fault.String(), "-fault-seed", strconv.FormatUint(cfg.FaultSeed, 10))
	}
	if cfg.Obs {
		args = append(args, "-obs")
	}
	if len(cfg.Nodes) > 0 {
		counts := make([]string, 0, len(cfg.Nodes))
		for id, k := range cfg.Nodes {
			counts = append(counts, id+"="+strconv.Itoa(k))
		}
		sort.Strings(counts)
		args = append(args, "-nodes", strings.Join(counts, ","))
	}
	if !cfg.Admission.IsAlways() {
		args = append(args, "-admission", cfg.Admission.String())
	}
	if coordAddr != "" {
		args = append(args, "-coord", coordAddr)
	}
	return args
}

// moduleRoot locates the enclosing Go module (where ./cmd/adaptbf-node
// resolves) from the process working directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("harness: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("harness: not inside a Go module; set RemoteBackend.NodeBin to a prebuilt adaptbf-node")
	}
	return filepath.Dir(gomod), nil
}

// A nodeProc is one spawned adaptbf-node process and its parsed stdout.
type nodeProc struct {
	cmd    *exec.Cmd
	addr   string
	health cluster.NodeHealth     // the readiness probe's answer
	stats  chan cluster.NodeStats // buffered 1; fed by the STATS drain line
	exited chan struct{}          // closed when the process is reaped
	stderr bytes.Buffer
}

// spawnNode starts the binary, parses the ADDR line, and health-checks
// the node before returning it.
func spawnNode(bin string, args []string) (*nodeProc, error) {
	p := &nodeProc{
		cmd:    exec.Command(bin, args...),
		stats:  make(chan cluster.NodeStats, 1),
		exited: make(chan struct{}),
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "ADDR "); ok {
				select {
				case addrCh <- a:
				default:
				}
			} else if s, ok := strings.CutPrefix(line, "STATS "); ok {
				if st, err := cluster.ParseNodeStats([]byte(s)); err == nil {
					select {
					case p.stats <- st:
					default:
					}
				}
			}
		}
		p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrCh:
	case <-p.exited:
		return nil, fmt.Errorf("harness: adaptbf-node exited at startup: %s", p.stderr.String())
	case <-time.After(remoteReadyTimeout):
		p.kill()
		return nil, fmt.Errorf("harness: adaptbf-node printed no ADDR line within %v", remoteReadyTimeout)
	}
	health, err := waitHealthy(p.addr)
	if err != nil {
		p.kill()
		return nil, err
	}
	p.health = health
	return p, nil
}

// waitHealthy probes the node's health opcode until it answers, and
// returns the parsed NodeHealth — the node's own account of its role,
// policy, build, and obs status.
func waitHealthy(addr string) (cluster.NodeHealth, error) {
	deadline := time.Now().Add(remoteReadyTimeout)
	r := &transport.Redialer{Network: "tcp", Addr: addr, Attempts: 1}
	defer r.Close()
	var lastErr error
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rep, err := r.CallCtx(ctx, transport.Request{Op: cluster.OpNodeHealth})
		cancel()
		if err == nil {
			h, perr := cluster.ParseNodeHealth(rep.Payload)
			if perr != nil {
				return h, fmt.Errorf("harness: node %s answered health with an unparseable payload: %v", addr, perr)
			}
			return h, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return cluster.NodeHealth{}, fmt.Errorf("harness: node %s never became healthy: %v", addr, lastErr)
}

// terminate SIGTERMs the node (triggering its graceful drain), waits for
// its STATS snapshot, and reaps it — escalating to SIGKILL if the drain
// exceeds its bound. A node that printed no snapshot yields zero stats.
func (p *nodeProc) terminate(drainBound time.Duration) cluster.NodeStats {
	p.cmd.Process.Signal(os.Interrupt)
	var st cluster.NodeStats
	select {
	case st = <-p.stats:
	case <-p.exited:
		// Exited without draining (crashed, or killed earlier) — but a
		// STATS line scanned just before EOF still counts.
		select {
		case st = <-p.stats:
		default:
		}
	case <-time.After(drainBound):
	}
	select {
	case <-p.exited:
	case <-time.After(2 * time.Second):
		p.kill()
	}
	return st
}

func (p *nodeProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// RunCell executes one cell as separate node processes over TCP.
func (b *RemoteBackend) RunCell(ctx context.Context, spec CellSpec) (CellOutcome, error) {
	// Per-RPC retry budget. A crash/restart cell needs the backoff window
	// to span the dead gap, or every in-flight job fails before the
	// respawn comes up.
	runner := cluster.JobRunner{
		RPCTimeout:   b.RPCTimeout,
		Retries:      b.Retries,
		RetryBackoff: 25 * time.Millisecond,
	}
	if runner.RPCTimeout <= 0 {
		runner.RPCTimeout = 15 * time.Second
	}
	if runner.Retries <= 0 {
		runner.Retries = 2
	}
	if spec.Faults.CrashOSS && spec.Faults.RestartAfter > 0 {
		need := spec.Faults.RestartAfter + 2*time.Second
		runner.RetryBackoff = 250 * time.Millisecond
		for window := runner.RetryBackoff * ((1 << runner.Retries) - 1); window < need && runner.Retries < 10; runner.Retries++ {
			window = runner.RetryBackoff * ((1 << (runner.Retries + 1)) - 1)
		}
	}
	return runLiveCell(ctx, spec, liveCell{
		device:      b.Device,
		speedup:     b.Speedup,
		bucketDepth: b.BucketDepth,
		runner:      runner,
		launch:      &procLauncher{b: b, faults: spec.Faults},
	})
}

// procLauncher spawns a cell's nodes as adaptbf-node processes reached
// over loopback TCP, and realizes the crash/restart fault on the first
// OSS node.
type procLauncher struct {
	b      *RemoteBackend
	faults FaultProfile
	bin    string
	coord  *nodeProc
	args   [][]string // each OSS node's flags, for a respawn

	mu    sync.Mutex  // guards osses[0] and procs across a respawn
	osses []*nodeProc // the live process per OSS slot
	procs []*nodeProc // every process ever spawned, for kill
}

// spawn starts one node process and logs its readiness.
func (l *procLauncher) spawn(args []string) (*nodeProc, error) {
	p, err := spawnNode(l.bin, args)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.procs = append(l.procs, p)
	l.mu.Unlock()
	if l.b.Logf != nil {
		h := p.health
		l.b.Logf("harness: node %s ready: role=%s policy=%s go=%s obs=%v uptime=%.2fs",
			p.addr, h.Role, h.Policy, h.GoVersion, h.Obs, h.UptimeS)
	}
	return p, nil
}

func (l *procLauncher) start(coord *cluster.NodeConfig, osses []cluster.NodeConfig) error {
	bin, err := l.b.bin()
	if err != nil {
		return err
	}
	l.bin = bin
	// The GIFT coordinator first: agents dial it at startup.
	coordAddr := ""
	if coord != nil {
		if l.coord, err = l.spawn(nodeArgs(*coord, "")); err != nil {
			return err
		}
		coordAddr = l.coord.addr
	}
	for _, cfg := range osses {
		args := nodeArgs(cfg, coordAddr)
		p, err := l.spawn(args)
		if err != nil {
			return err
		}
		l.args = append(l.args, args)
		l.osses = append(l.osses, p)
	}
	return nil
}

// dial returns a Redialer, which reconnects across node restarts; the
// per-call retry budget lives in the runner, so internal attempts stay
// at 1.
func (l *procLauncher) dial(i int) transport.Caller {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &transport.Redialer{Network: "tcp", Addr: l.osses[i].addr, Attempts: 1}
}

// injectFaults realizes the crash/restart fault: SIGKILL the first OSS
// node mid-run (no drain, no STATS — a crash), optionally respawning it
// on the same address so reconnecting clients recover.
func (l *procLauncher) injectFaults(wallCap time.Duration, cellObs *obs.CellObs) func() {
	if !l.faults.CrashOSS {
		return func() {}
	}
	crashAfter := l.faults.CrashAfter
	if crashAfter <= 0 {
		crashAfter = wallCap / 4
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
			return
		case <-time.After(crashAfter):
		}
		l.mu.Lock()
		victim := l.osses[0]
		l.mu.Unlock()
		victim.kill()
		if cellObs != nil {
			cellObs.Tracer.Instant("oss.crash", "fault", 0, cellObs.Tracer.Now(),
				map[string]any{"addr": victim.addr})
		}
		if l.faults.RestartAfter <= 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(l.faults.RestartAfter):
		}
		args := append([]string(nil), l.args[0]...)
		for i := range args { // pin the respawn to the crashed node's address
			if args[i] == "-listen" {
				args[i+1] = victim.addr
			}
		}
		p, err := l.spawn(args)
		if err != nil {
			return // clients keep failing against the dead addr; the cell reports it
		}
		l.mu.Lock()
		l.osses[0] = p
		l.mu.Unlock()
		if cellObs != nil {
			cellObs.Tracer.Instant("oss.restart", "fault", 0, cellObs.Tracer.Now(),
				map[string]any{"addr": p.addr})
		}
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}

func (l *procLauncher) stop() ([]cluster.NodeStats, cluster.NodeStats) {
	l.mu.Lock()
	final := append([]*nodeProc(nil), l.osses...)
	l.mu.Unlock()
	stats := make([]cluster.NodeStats, len(final))
	for i, p := range final {
		stats[i] = p.terminate(8 * time.Second)
	}
	var coord cluster.NodeStats
	if l.coord != nil {
		coord = l.coord.terminate(8 * time.Second)
	}
	return stats, coord
}

func (l *procLauncher) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.procs {
		select {
		case <-p.exited:
		default:
			p.kill()
		}
	}
}
