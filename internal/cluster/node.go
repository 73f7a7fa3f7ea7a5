package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"adaptbf/internal/admission"
	"adaptbf/internal/controller"
	"adaptbf/internal/obs"
	"adaptbf/internal/transport"
	"adaptbf/internal/workload"
)

// Control-plane opcodes a Node answers itself, in the same far-out range
// as OpGIFTWalk so they can never collide with storage traffic.
const (
	// OpObsDrain drains the node's observability: the reply payload is an
	// ObsDrain JSON — trace events accumulated since the previous drain
	// plus a cumulative metrics snapshot. Spawners call it at teardown to
	// fold the node's spans and counters into the cell.
	OpObsDrain uint8 = 0xF7
	// OpNodeHealth is the readiness probe: the reply payload is a
	// NodeHealth JSON (role, policy, uptime, Go version, obs status), so
	// a spawner can verify it addressed the process it meant to.
	OpNodeHealth uint8 = 0xF8
	// OpNodeStats returns a NodeStats JSON snapshot of what is safely
	// observable while the node is serving (device counters only appear
	// in the final drain snapshot — they require a closed OSS).
	OpNodeStats uint8 = 0xF9
)

// A NodeConfig describes one storage server (or GIFT coordinator) plus
// its policy machinery — the one place live policies are wired. The
// same config runs in-process (NewNode, reached through Node.Pipe) and
// as an adaptbf-node process (StartNode, served over TCP), with
// optional fault injection on every connection either way.
type NodeConfig struct {
	// Role is "oss" (default) or "coord" (a GIFT coordinator only).
	Role string
	// Listen is StartNode's TCP listen address. Default "127.0.0.1:0".
	Listen string

	// OSS configures the storage server ("oss" role). For the "sfq"
	// policy the node installs the SFQ gate itself from SFQDepth and
	// Nodes — leave OSS.SFQ nil; likewise for "edt" and OSS.EDT, whose
	// byte rates the node derives from Nodes and MaxRate.
	OSS OSSConfig
	// Policy names the bandwidth-control machinery beside the OSS:
	// "nobw" (default), "static", "adaptbf", "sfq", "edt", or "gift".
	Policy string
	// MaxRate is the target's token capacity in tokens/s (static,
	// adaptbf, edt, gift) and the coordinator's per-walk capacity hint.
	MaxRate float64
	// Period is the controller/coordinator decision epoch in OSS time.
	Period time.Duration
	// SFQDepth is the SFQ(D) dispatch depth (sfq policy).
	SFQDepth int
	// Nodes maps each job ID to its compute-node count — what static
	// rules, the AdapTBF node mapper, and SFQ weights are derived from.
	// Jobs not listed count as 1 node.
	Nodes map[string]int
	// Coord is the GIFT agent's link to its coordinator (gift policy):
	// a Redialer to the coordinator process, or a Pipe to an in-process
	// coordinator Node. The node owns it and closes it on Close (or when
	// NewNode fails).
	Coord transport.Caller

	// Admission selects the OSS's overload-protection policy (zero =
	// always-admit). Convenience: it is copied into OSS.Admission, so a
	// spawner can thread the whole node through flags without touching
	// the nested OSSConfig.
	Admission admission.Config

	// Fault, when nonzero, wraps every accepted or piped connection so
	// each message this node sends pays the profile's delays, seeded by
	// FaultSeed plus a per-connection offset.
	Fault     transport.Fault
	FaultSeed uint64

	// DrainTimeout bounds the graceful drain: connections still open
	// that long after Close are force-closed. Default 5s.
	DrainTimeout time.Duration

	// Obs enables the node's observability: a metrics registry and a
	// tracer wired through the served OSS, drained over the wire via
	// OpObsDrain and servable over HTTP (see Obs and cmd/adaptbf-node's
	// -obs-addr). Off by default — the node then pays only nil checks.
	Obs bool
}

// A NodeHealth is the health probe's reply payload.
type NodeHealth struct {
	Role      string  `json:"role"`
	Policy    string  `json:"policy"`
	UptimeS   float64 `json:"uptime_s"`
	GoVersion string  `json:"go_version"`
	Obs       bool    `json:"obs"`
}

// ParseNodeHealth decodes a health reply payload.
func ParseNodeHealth(payload []byte) (NodeHealth, error) {
	var h NodeHealth
	err := json.Unmarshal(payload, &h)
	return h, err
}

// An ObsDrain is the OpObsDrain reply payload: the trace events
// accumulated since the previous drain and a snapshot of the metrics
// registry. Events drain incrementally; the snapshot is cumulative, so
// a folder keeps only the latest one rather than summing drains.
type ObsDrain struct {
	Events   []obs.Event  `json:"events,omitempty"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

// NodeStats is a node's observable state: served live via OpNodeStats
// (device fields zero — they require a closed OSS), returned by Close as
// the final snapshot, and printed as the STATS drain line by
// cmd/adaptbf-node.
type NodeStats struct {
	Role   string `json:"role"`
	Policy string `json:"policy"`
	Addr   string `json:"addr"`

	Conns       int     `json:"conns"`
	PendingRPCs int     `json:"pending_rpcs"`
	ServedRPCs  uint64  `json:"served_rpcs,omitempty"`
	BusySeconds float64 `json:"busy_seconds,omitempty"`

	// Coordinator role: central walks served and the bank's state.
	Walks              int64   `json:"walks,omitempty"`
	BankEntries        int     `json:"bank_entries,omitempty"`
	CouponsOutstanding float64 `json:"coupons_outstanding,omitempty"`

	// GIFT agent (oss role, final snapshot only): see GIFTAgentStats.
	WalkTimes []time.Duration `json:"walk_times_ns,omitempty"`
	RuleOps   int             `json:"rule_ops,omitempty"`
	CtrlMsgs  int64           `json:"ctrl_msgs,omitempty"`

	// Admission counters (zero under always-admit; see OSS.AdmissionStats).
	RejectedRPCs uint64 `json:"rejected_rpcs,omitempty"`
	ShedRPCs     uint64 `json:"shed_rpcs,omitempty"`
	OfferedBytes int64  `json:"offered_bytes,omitempty"`
	GoodputBytes int64  `json:"goodput_bytes,omitempty"`
}

// MarshalLine renders the stats as one compact JSON object — the
// daemon's STATS drain line, which spawners parse back with
// ParseNodeStats.
func (s NodeStats) MarshalLine() ([]byte, error) { return json.Marshal(s) }

// ParseNodeStats decodes a STATS drain line's JSON object.
func ParseNodeStats(line []byte) (NodeStats, error) {
	var s NodeStats
	err := json.Unmarshal(line, &s)
	return s, err
}

// A Node is one storage server's core: the served OSS or GIFT
// coordinator, the policy machinery running beside it, and — when
// started with StartNode — a TCP listener. Stop with Close (graceful
// drain).
type Node struct {
	cfg    NodeConfig
	ln     net.Listener // nil for a NewNode reached only through Pipe
	oss    *OSS
	coord  *GIFTCoordinator
	agent  *GIFTAgent
	acoord transport.Caller
	obs    *obs.CellObs
	start  time.Time

	// Last coordinator-Redialer counters already folded into the metrics
	// registry, under mu (syncObsTransport adds only the delta).
	obsDials   int64
	obsRetries int64

	stopCtls  context.CancelFunc
	ctlWG     sync.WaitGroup
	acceptWG  sync.WaitGroup
	connWG    sync.WaitGroup
	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	connSeq   uint64
	closing   bool
	closeOnce sync.Once
	final     NodeStats
}

// StartNode is NewNode plus a TCP listener on cfg.Listen accepting
// connections — one adaptbf-node process's server.
func StartNode(cfg NodeConfig) (*Node, error) {
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", n.cfg.Listen)
	if err != nil {
		n.Close()
		return nil, err
	}
	n.ln = ln
	n.acceptWG.Add(1)
	go n.acceptLoop()
	return n, nil
}

// NewNode validates the config and stands up the role and policy
// machinery, without a listener: clients reach it through Pipe.
func NewNode(cfg NodeConfig) (n *Node, err error) {
	if cfg.Coord != nil {
		defer func() {
			if err != nil {
				cfg.Coord.Close()
			}
		}()
	}
	if cfg.Role == "" {
		cfg.Role = "oss"
	}
	if cfg.Policy == "" {
		cfg.Policy = "nobw"
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Role {
	case "oss", "coord":
	default:
		return nil, fmt.Errorf("cluster: unknown node role %q (want oss or coord)", cfg.Role)
	}

	n = &Node{cfg: cfg, acoord: cfg.Coord, conns: make(map[net.Conn]struct{}), start: time.Now()}
	if cfg.Obs {
		// The tracer's fallback clock is wall time since node start; the
		// OSS stamps its own spans with OSS time, which shares the epoch.
		start := n.start
		n.obs = &obs.CellObs{
			Tracer:  obs.NewTracer(func() int64 { return int64(time.Since(start)) }),
			Metrics: obs.NewRegistry(),
		}
	}
	ctlCtx, stopCtls := context.WithCancel(context.Background())
	n.stopCtls = stopCtls

	switch cfg.Role {
	case "coord":
		if cfg.Policy != "gift" && cfg.Policy != "nobw" {
			return nil, fmt.Errorf("cluster: the coord role serves GIFT only (policy %q)", cfg.Policy)
		}
		n.coord = NewGIFTCoordinator(cfg.Period)
	case "oss":
		ocfg := cfg.OSS
		if err := cfg.Admission.Validate(); err != nil {
			stopCtls()
			return nil, err
		}
		if cfg.Policy == "gift" && cfg.Coord == nil {
			stopCtls()
			return nil, fmt.Errorf("cluster: gift policy needs a coordinator link")
		}
		if !cfg.Admission.IsAlways() {
			ocfg.Admission = cfg.Admission
		}
		ocfg.Obs = n.obs
		switch cfg.Policy {
		case "sfq":
			nodes := cfg.Nodes
			ocfg.SFQ = &SFQConfig{
				Depth: cfg.SFQDepth,
				Weights: func(jobID string) float64 {
					if k := nodes[jobID]; k > 0 {
						return float64(k)
					}
					return 1
				},
			}
		case "edt":
			// The node-proportional byte-rate split StaticRules encodes
			// as token rules (one token ≈ 1 MiB), expressed as the
			// bytes/s EDT paces in.
			nodes := cfg.Nodes
			total := 0
			for _, k := range nodes {
				total += k
			}
			maxRate := cfg.MaxRate
			ocfg.EDT = &EDTConfig{Rates: func(jobID string) float64 {
				if total == 0 {
					return 0
				}
				return float64(nodes[jobID]) / float64(total) * maxRate * (1 << 20)
			}}
		}
		n.oss = NewOSS(ocfg)
		if err := n.startOSSPolicy(ctlCtx); err != nil {
			n.oss.Close()
			stopCtls()
			return nil, err
		}
	}
	return n, nil
}

// startOSSPolicy stands up the policy machinery beside the OSS.
func (n *Node) startOSSPolicy(ctlCtx context.Context) error {
	cfg := n.cfg
	switch cfg.Policy {
	case "nobw", "sfq", "edt":
		// nobw is FCFS; sfq's and edt's gates were installed at NewOSS.
	case "static":
		jobs := make([]workload.Job, 0, len(cfg.Nodes))
		for id, k := range cfg.Nodes {
			jobs = append(jobs, workload.Job{ID: id, Nodes: k})
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		eng := n.oss.Engine()
		for _, r := range workload.StaticRules(jobs, cfg.MaxRate, 0) {
			if err := eng.StartRule(r, n.oss.Now()); err != nil {
				return fmt.Errorf("cluster: node static rule %s: %w", r.Name, err)
			}
		}
	case "adaptbf":
		nodes := cfg.Nodes
		mapper := controller.NodeMapperFunc(func(jobID string) int {
			if k := nodes[jobID]; k > 0 {
				return k
			}
			return 1
		})
		ctl := n.oss.NewController(mapper, cfg.MaxRate, cfg.Period)
		n.ctlWG.Add(1)
		go func() {
			defer n.ctlWG.Done()
			ctl.Run(ctlCtx)
		}()
	case "gift":
		n.agent = n.oss.NewGIFTAgent(n.acoord, cfg.MaxRate, cfg.Period)
		n.ctlWG.Add(1)
		go func() {
			defer n.ctlWG.Done()
			n.agent.Run(ctlCtx)
		}()
	default:
		return fmt.Errorf("cluster: unknown node policy %q", cfg.Policy)
	}
	return nil
}

// Addr reports the bound listen address ("" without a listener).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// connSeed is the fault seed of the node's next connection; callers
// hold mu.
func (n *Node) connSeed() uint64 {
	n.connSeq++
	return n.cfg.FaultSeed + n.connSeq*0x9e3779b97f4a7c15
}

// Pipe connects an in-process client to the node, faulted exactly like
// an accepted TCP connection. The caller closes it before Close.
func (n *Node) Pipe() *transport.Client {
	n.mu.Lock()
	seed := n.connSeed()
	n.mu.Unlock()
	return transport.PipeFault(n, n.cfg.Fault, seed)
}

func (n *Node) acceptLoop() {
	defer n.acceptWG.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closing {
			n.mu.Unlock()
			conn.Close()
			continue
		}
		fc := transport.FaultedConn(conn, n.cfg.Fault, n.connSeed())
		n.conns[fc] = struct{}{}
		n.mu.Unlock()
		n.connWG.Add(1)
		go func() {
			defer n.connWG.Done()
			_ = transport.ServeConn(fc, n)
			fc.Close()
			n.mu.Lock()
			delete(n.conns, fc)
			n.mu.Unlock()
		}()
	}
}

// Handle implements transport.Handler: node control opcodes are answered
// here, GIFT walks route to the coordinator, everything else is storage
// traffic for the OSS.
func (n *Node) Handle(req transport.Request, reply func(transport.Reply)) {
	switch {
	case req.Op == OpNodeHealth:
		buf, err := json.Marshal(NodeHealth{
			Role:      n.cfg.Role,
			Policy:    n.cfg.Policy,
			UptimeS:   time.Since(n.start).Seconds(),
			GoVersion: runtime.Version(),
			Obs:       n.obs != nil,
		})
		if err != nil {
			reply(transport.Reply{Err: "node: health: " + err.Error()})
			return
		}
		reply(transport.Reply{Payload: buf})
	case req.Op == OpObsDrain:
		var d ObsDrain
		if n.obs != nil {
			n.syncObsTransport()
			d.Events = n.obs.Tracer.Drain()
			d.Snapshot = n.obs.Metrics.Snapshot()
		}
		buf, err := json.Marshal(d)
		if err != nil {
			reply(transport.Reply{Err: "node: obs drain: " + err.Error()})
			return
		}
		reply(transport.Reply{Payload: buf})
	case req.Op == OpNodeStats:
		buf, err := json.Marshal(n.liveStats())
		if err != nil {
			reply(transport.Reply{Err: "node: stats: " + err.Error()})
			return
		}
		reply(transport.Reply{Payload: buf})
	case req.Op == OpGIFTWalk && n.coord != nil:
		n.coord.Handle(req, reply)
	case req.Op >= 0xF0:
		reply(transport.Reply{Err: fmt.Sprintf("node: no handler for control opcode %#x in role %s", req.Op, n.cfg.Role)})
	case n.oss != nil:
		n.oss.Handle(req, reply)
	default:
		reply(transport.Reply{Err: "node: coordinator serves control traffic only"})
	}
}

// liveStats snapshots what is observable while serving (no device
// counters — those require a closed OSS and appear in Close's snapshot).
func (n *Node) liveStats() NodeStats {
	st := NodeStats{Role: n.cfg.Role, Policy: n.cfg.Policy, Addr: n.Addr()}
	n.mu.Lock()
	st.Conns = len(n.conns)
	n.mu.Unlock()
	if n.oss != nil {
		for _, k := range n.oss.PendingJobs() {
			st.PendingRPCs += k
		}
		st.RejectedRPCs, st.ShedRPCs, st.OfferedBytes, st.GoodputBytes = n.oss.AdmissionStats()
	}
	if n.coord != nil {
		st.Walks = n.coord.Walks()
		st.BankEntries = n.coord.BankEntries()
		st.CouponsOutstanding = n.coord.OutstandingCoupons()
	}
	return st
}

// Obs exposes the node's observability sinks (nil when NodeConfig.Obs
// is off) — what cmd/adaptbf-node serves at -obs-addr.
func (n *Node) Obs() *obs.CellObs { return n.obs }

// syncObsTransport folds the coordinator Redialer's dial/retry counters
// into the metrics registry, adding only what accumulated since the
// previous sync so repeated drains and scrapes never double-count.
func (n *Node) syncObsTransport() {
	rd, ok := n.acoord.(*transport.Redialer)
	if n.obs == nil || n.obs.Metrics == nil || !ok {
		return
	}
	st := rd.Stats()
	n.mu.Lock()
	dDials, dRetries := st.Dials-n.obsDials, st.Retries-n.obsRetries
	n.obsDials, n.obsRetries = st.Dials, st.Retries
	n.mu.Unlock()
	if dDials > 0 {
		n.obs.Metrics.Counter(obs.MetricRedials).Add(dDials)
	}
	if dRetries > 0 {
		n.obs.Metrics.Counter(obs.MetricRetries).Add(dRetries)
	}
}

// teardownRole stops the served OSS (reading its final device counters
// into the drain snapshot) or coordinator.
func (n *Node) teardownRole() {
	n.final = NodeStats{Role: n.cfg.Role, Policy: n.cfg.Policy, Addr: n.Addr()}
	if n.agent != nil {
		st := n.agent.Stats()
		n.final.WalkTimes, n.final.RuleOps, n.final.CtrlMsgs = st.WalkTimes, st.RuleOps, st.CtrlMsgs
	}
	if n.oss != nil {
		n.oss.Close()
		served, busy := n.oss.DeviceStats()
		n.final.ServedRPCs = served
		n.final.BusySeconds = busy.Seconds()
		n.final.RejectedRPCs, n.final.ShedRPCs, n.final.OfferedBytes, n.final.GoodputBytes = n.oss.AdmissionStats()
	}
	if n.coord != nil {
		n.final.Walks = n.coord.Walks()
		n.final.BankEntries = n.coord.BankEntries()
		n.final.CouponsOutstanding = n.coord.OutstandingCoupons()
	}
	if n.acoord != nil {
		n.acoord.Close()
	}
}

// Close gracefully drains the node: stop accepting, give open TCP
// connections DrainTimeout to finish (then force-close them), stop the
// policy machinery, close the OSS, and return the final stats snapshot —
// including the device counters and GIFT agent accounting only a
// stopped node can report.
func (n *Node) Close() NodeStats {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.closing = true
		n.mu.Unlock()
		if n.ln != nil {
			n.ln.Close()
		}
		n.acceptWG.Wait()

		drained := make(chan struct{})
		go func() {
			n.connWG.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(n.cfg.DrainTimeout):
			n.mu.Lock()
			for c := range n.conns {
				c.Close()
			}
			n.mu.Unlock()
			<-drained
		}

		n.stopCtls()
		n.ctlWG.Wait()
		n.teardownRole()
	})
	return n.final
}
