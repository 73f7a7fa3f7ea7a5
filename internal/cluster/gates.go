package cluster

import (
	"sync"
	"time"

	"adaptbf/internal/obs"
	"adaptbf/internal/tbf"
)

// seqGate is the single-threaded scheduler contract shared by
// *tbf.Scheduler, *sfq.Scheduler, and *edt.Scheduler — the same
// schedulers the simulator runs. lockedGate makes one safe for
// concurrent use and is where gate_lock_wait_ns is observed, so every
// policy reports comparable lock-wait numbers at the same seam.
type seqGate interface {
	Enqueue(req *tbf.Request, now int64)
	Dequeue(now int64) (req *tbf.Request, wake int64, ok bool)
	PendingJobsInto(dst map[string]int)
}

// lockedGate serializes a single-threaded scheduler behind one mutex —
// the shape of Lustre's NRS TBF, one scheduler per OSS. It is the
// request gate standing between arriving requests and the dispatcher,
// the live twin of the simulator's gate seam.
type lockedGate struct {
	mu    sync.Mutex
	inner seqGate
	waitH *obs.Histogram
}

func newLockedGate(inner seqGate, waitH *obs.Histogram) *lockedGate {
	return &lockedGate{inner: inner, waitH: waitH}
}

// lock acquires the gate lock, recording the acquisition wait into
// waitH when observability is on.
func (g *lockedGate) lock() {
	if g.waitH == nil {
		g.mu.Lock()
		return
	}
	t0 := time.Now()
	g.mu.Lock()
	g.waitH.Observe(int64(time.Since(t0)))
}

func (g *lockedGate) Enqueue(req *tbf.Request, now int64) {
	g.lock()
	g.inner.Enqueue(req, now)
	g.mu.Unlock()
}

func (g *lockedGate) Dequeue(now int64) (*tbf.Request, int64, bool) {
	g.lock()
	req, wake, ok := g.inner.Dequeue(now)
	g.mu.Unlock()
	return req, wake, ok
}

func (g *lockedGate) PendingJobs() map[string]int {
	out := make(map[string]int)
	g.lock()
	g.inner.PendingJobsInto(out)
	g.mu.Unlock()
	return out
}

// withLock runs fn under the gate lock. Rule mutations, token
// introspection, and SFQ slot releases on the inner scheduler all go
// through here.
func (g *lockedGate) withLock(fn func()) {
	g.lock()
	fn()
	g.mu.Unlock()
}

// lockedTBFEngine adapts a TBF gate's rule interface: every mutation
// runs under the gate lock, where the scheduler's state lives.
type lockedTBFEngine struct {
	g     *lockedGate
	sched *tbf.Scheduler
}

func (e lockedTBFEngine) Rules() []tbf.Rule {
	var out []tbf.Rule
	e.g.withLock(func() { out = e.sched.Rules() })
	return out
}

func (e lockedTBFEngine) StartRule(r tbf.Rule, now int64) error {
	var err error
	e.g.withLock(func() { err = e.sched.StartRule(r, now) })
	return err
}

func (e lockedTBFEngine) ChangeRule(name string, rate float64, order int, now int64) error {
	var err error
	e.g.withLock(func() { err = e.sched.ChangeRule(name, rate, order, now) })
	return err
}

func (e lockedTBFEngine) StopRule(name string, now int64) error {
	var err error
	e.g.withLock(func() { err = e.sched.StopRule(name, now) })
	return err
}
