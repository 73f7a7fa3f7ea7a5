package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"adaptbf/internal/core"
	"adaptbf/internal/gift"
	"adaptbf/internal/obs"
	"adaptbf/internal/rules"
	"adaptbf/internal/transport"
)

// OpGIFTWalk is the transport opcode of a GIFT coordination RPC. It is
// far outside the tbf.Opcode range, so a walk request mis-routed to a
// storage server is classified as ordinary (if nonsensical) traffic
// rather than corrupting rule state, and a storage request hitting the
// coordinator is rejected outright.
const OpGIFTWalk uint8 = 0xF0

// A GIFTWalkRequest is one storage target's per-epoch consultation of
// the central coordinator: the applications active on the target and the
// target's token-rate capacity. It travels gob-encoded in
// transport.Request.Payload.
type GIFTWalkRequest struct {
	Active  []gift.Activity
	MaxRate float64
}

// A GIFTWalkReply carries the coordinator's grants back, plus a snapshot
// of the global coupon bank taken inside the same critical section — the
// centralized state every target transitively depends on.
type GIFTWalkReply struct {
	Allocs             []gift.Allocation
	BankEntries        int
	CouponsOutstanding float64
}

// A GIFTCoordinator is the live centralized GIFT controller: one
// process-wide coupon bank behind one mutex, consulted by every storage
// target over the transport. The mutex is not an implementation detail —
// GIFT's central walk is serial by design, and serializing the walks
// here reproduces that seriality as real queueing on the coordinator,
// so its coordination cost is measured on the wire rather than modeled.
type GIFTCoordinator struct {
	mu    sync.Mutex
	ctrl  *gift.Controller
	walks int64
}

// NewGIFTCoordinator returns a coordinator with the given decision
// epoch. Serve it with transport.Pipe (in-process) or transport.Serve
// (TCP) and point every OSS's GIFTAgent at it.
func NewGIFTCoordinator(epoch time.Duration) *GIFTCoordinator {
	return &GIFTCoordinator{ctrl: gift.New(epoch)}
}

// Handle implements transport.Handler: decode one target's walk, run the
// centralized allocation under the bank lock, and reply with the grants
// and a consistent bank snapshot.
func (c *GIFTCoordinator) Handle(req transport.Request, reply func(transport.Reply)) {
	if req.Op != OpGIFTWalk {
		reply(transport.Reply{Err: fmt.Sprintf("gift coordinator: unexpected opcode %d", req.Op)})
		return
	}
	var walk GIFTWalkRequest
	if err := gob.NewDecoder(bytes.NewReader(req.Payload)).Decode(&walk); err != nil {
		reply(transport.Reply{Err: "gift coordinator: bad walk payload: " + err.Error()})
		return
	}
	c.mu.Lock()
	rep := GIFTWalkReply{
		Allocs:             c.ctrl.Allocate(walk.Active, walk.MaxRate),
		BankEntries:        c.ctrl.BankEntries(),
		CouponsOutstanding: c.ctrl.OutstandingCoupons(),
	}
	c.walks++
	c.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
		reply(transport.Reply{Err: "gift coordinator: encode reply: " + err.Error()})
		return
	}
	reply(transport.Reply{Payload: buf.Bytes()})
}

// Walks reports how many target walks the coordinator has served.
func (c *GIFTCoordinator) Walks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.walks
}

// BankEntries reports the applications holding a non-zero coupon
// balance.
func (c *GIFTCoordinator) BankEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl.BankEntries()
}

// OutstandingCoupons reports the total coupon balance still owed.
func (c *GIFTCoordinator) OutstandingCoupons() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl.OutstandingCoupons()
}

// GIFTAgentStats is a snapshot of one agent's accumulated coordination
// cost, the live counterpart of the simulator's GIFT walk accounting.
type GIFTAgentStats struct {
	// WalkTimes holds one wall-clock coordinator round-trip (encode →
	// RPC → decode → rules applied) per completed epoch. These are wire
	// times, deliberately not scaled by Speedup: the coordination cost of
	// a centralized controller is paid in real time on a real network.
	WalkTimes []time.Duration
	// RuleOps counts TBF rule operations the agent applied.
	RuleOps int
	// CtrlMsgs counts coordination messages the same way the simulator
	// does: two per walk (demand up, grants down) plus one per rule op.
	CtrlMsgs int64
	// BankEntries and CouponsOutstanding mirror the coordinator's bank
	// as of the agent's last completed walk.
	BankEntries        int
	CouponsOutstanding float64
}

// A GIFTAgent is the storage-server side of live GIFT: each epoch it
// snapshots its OSS's observed demand and backlog, consults the central
// coordinator over the transport, and applies the returned grants as TBF
// rules through the OSS's engine. One agent per OSS; the coordinator is
// the only shared state — which is exactly GIFT's centralization.
type GIFTAgent struct {
	oss     *OSS
	coord   transport.Caller
	daemon  *rules.Daemon
	maxRate float64
	period  time.Duration

	mu    sync.Mutex
	stats GIFTAgentStats
}

// NewGIFTAgent builds this OSS's coordinator-facing agent. coord is any
// transport.Caller — an in-process pipe client or a reconnecting
// Redialer for a coordinator in another OS process. maxRate is the
// target's token capacity in tokens/s and period the decision epoch in
// (possibly accelerated) OSS time; like the AdapTBF controller, the
// agent ticks faster on the wall clock by the Speedup factor so the
// logical epoch matches. Run it with go agent.Run(ctx).
func (o *OSS) NewGIFTAgent(coord transport.Caller, maxRate float64, period time.Duration) *GIFTAgent {
	if o.tbfSched == nil {
		panic("cluster: an SFQ- or EDT-gated OSS has no TBF rules for a GIFT agent to drive")
	}
	return &GIFTAgent{
		oss:     o,
		coord:   coord,
		daemon:  rules.New(o.Engine(), rules.Config{Prefix: "gift_"}),
		maxRate: maxRate,
		period:  period,
	}
}

// Run walks the coordinator every epoch until ctx ends. A failed walk
// (coordinator gone, transport closed) is skipped — the accumulated
// demand simply feeds the next epoch, matching the controller's
// stats-cleared-only-on-success contract.
func (a *GIFTAgent) Run(ctx context.Context) {
	tick := time.Duration(float64(a.period) / a.oss.cfg.Speedup)
	if tick <= 0 {
		tick = a.period
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.walk()
		}
	}
}

// walk performs one epoch: drain the demand counters (atomically ending
// the observation period — RPCs landing during the coordinator
// round-trip accumulate untouched into the next one), consult the
// coordinator, and apply the grants. Any failure merges the drained
// demand back, so observed RPCs are never lost to a dead coordinator or
// a rule-engine error — the live analogue of the controller's
// clear-only-after-apply contract.
func (a *GIFTAgent) walk() {
	start := time.Now()
	var traceStart int64
	if a.oss.trace != nil {
		traceStart = a.oss.Now()
	}
	snap := a.oss.tracker.Drain(nil)
	pending := a.oss.PendingJobs()
	active := make([]gift.Activity, 0, len(snap)+len(pending))
	for _, st := range snap {
		d := st.RPCs
		if n := int64(pending[st.JobID]); n > d {
			d = n
		}
		delete(pending, st.JobID)
		active = append(active, gift.Activity{Job: st.JobID, Demand: d})
	}
	for job, n := range pending {
		active = append(active, gift.Activity{Job: job, Demand: int64(n)})
	}
	// An idle epoch still walks: the centralized controller polls every
	// target every epoch regardless of demand (and an empty allocation
	// reconciles away stale gift_ rules), exactly like the simulator's
	// per-epoch central walk — so CtrlMsgs/TickTimes parity holds on
	// workloads with idle phases.

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(GIFTWalkRequest{Active: active, MaxRate: a.maxRate}); err != nil {
		a.oss.tracker.Merge(snap)
		return
	}
	// Bound the walk: a dead or unreachable coordinator costs a few
	// epochs of waiting, not a wedged agent. The drained demand merges
	// back on failure, so nothing observed is lost.
	wt := 4 * time.Duration(float64(a.period)/a.oss.cfg.Speedup)
	if wt < time.Second {
		wt = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), wt)
	rep, err := a.coord.CallCtx(ctx, transport.Request{JobID: "gift-walk", Op: OpGIFTWalk, Payload: buf.Bytes()})
	cancel()
	if err != nil {
		a.oss.tracker.Merge(snap)
		return
	}
	var walk GIFTWalkReply
	if err := gob.NewDecoder(bytes.NewReader(rep.Payload)).Decode(&walk); err != nil {
		a.oss.tracker.Merge(snap)
		return
	}

	converted := make([]core.Allocation, len(walk.Allocs))
	for i, al := range walk.Allocs {
		converted[i] = core.Allocation{
			Job:      core.JobID(al.Job),
			Tokens:   al.Tokens,
			Rate:     al.Rate,
			Priority: 1.0 / float64(len(walk.Allocs)), // equal: GIFT is priority-unaware
		}
	}
	applied := 0
	if ops, err := a.daemon.Apply(converted, a.oss.Now()); err == nil {
		applied = len(ops.Applied)
	} else {
		a.oss.tracker.Merge(snap)
	}

	a.mu.Lock()
	a.stats.WalkTimes = append(a.stats.WalkTimes, time.Since(start))
	a.stats.RuleOps += applied
	a.stats.CtrlMsgs += 2 + int64(applied)
	a.stats.BankEntries = walk.BankEntries
	a.stats.CouponsOutstanding = walk.CouponsOutstanding
	a.mu.Unlock()

	if o := a.oss; o.tickCtr != nil {
		o.tickCtr.Add(1)
		o.mu.Lock()
		depth := o.queued
		o.mu.Unlock()
		o.depthG.Set(float64(depth))
	}
	if o := a.oss; o.trace != nil {
		// Unlike the simulator's zero-width walk instants, the live walk
		// is a real wire round-trip — the span width IS the coordination
		// cost GIFT pays for centralization.
		o.trace.Span("gift.walk", "ctrl", obs.ControllerTID+o.tid, traceStart, o.Now(), map[string]any{
			"active": len(active),
			"bank":   walk.BankEntries,
			"ops":    applied,
		})
	}
}

// Stats snapshots the agent's accumulated coordination cost.
func (a *GIFTAgent) Stats() GIFTAgentStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.stats
	out.WalkTimes = append([]time.Duration(nil), a.stats.WalkTimes...)
	return out
}
