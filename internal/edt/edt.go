// Package edt implements Earliest Departure Time (EDT) pacing as a
// request gate.
//
// EDT is the pacing model production traffic shaping moved to after
// token buckets: instead of mutating a shared bucket on every request,
// each flow carries a single "next departure" timestamp and each
// request is stamped with a departure time on arrival —
//
//	departure = max(now, flow.nextDeparture)
//	flow.nextDeparture = departure + bytes/rate
//
// — and released only once the clock reaches its stamp. A flow's
// pacing state is one int64; the only cross-request state is a
// timestamp priority queue, which releases requests in global
// earliest-departure order.
//
// Linux FQ bounds how far into the future a packet may be scheduled
// with a horizon and drops beyond it. The request-gate contract here
// has no drop path (a dropped request would never be answered), so
// the horizon clamps instead: departures beyond now+Horizon are pulled
// back to the horizon and counted, keeping the gate work-conserving.
//
// The scheduler is single-threaded like tbf.Scheduler and sfq.Scheduler;
// concurrent callers wrap it in a lock (see internal/cluster's
// lockedGate, the live OSS's request gate).
package edt

import "adaptbf/internal/tbf"

// DefaultHorizon bounds scheduled departures to 2 s into the future,
// mirroring the Linux FQ default of 2 s (fq's horizon knob).
const DefaultHorizon = int64(2 * tbf.NanosPerSecond)

// Config parameterizes an EDT scheduler.
type Config struct {
	// Rates returns a flow's pacing rate in BYTES per second, sampled
	// once when the flow is first seen. A rate <= 0 (or a nil Rates)
	// leaves the flow unpaced: its requests depart immediately.
	Rates func(jobID string) float64
	// Horizon bounds how far past now a departure may be stamped, in
	// nanoseconds; later departures are clamped to now+Horizon (Linux
	// FQ drops instead, but this gate has no drop path). <= 0 selects
	// DefaultHorizon.
	Horizon int64
}

// flow is the entire per-flow pacing state: EDT needs no queue or
// bucket per flow, just the next admissible departure timestamp.
type flow struct {
	rate          float64 // bytes/sec; <= 0 means unpaced
	nextDeparture int64
}

// entry is one queued request, ordered by (departure, seq) so equal
// timestamps release in arrival order.
type entry struct {
	req       *tbf.Request
	flow      int
	departure int64
	seq       uint64
}

// Scheduler is a single-threaded EDT request gate. It implements the
// simulator's requestGate seam and the cluster's seqGate.
type Scheduler struct {
	cfg     Config
	horizon int64

	flows   []flow
	pending []int    // queued requests per flow
	names   []string // flow index -> job ID
	flowIDs map[string]int
	indexed bool // SetJobs pre-interned the flow table

	queue   []entry // binary min-heap on (departure, seq)
	seq     uint64
	clamped int64
}

// New returns an EDT scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	h := cfg.Horizon
	if h <= 0 {
		h = DefaultHorizon
	}
	return &Scheduler{cfg: cfg, horizon: h, flowIDs: make(map[string]int)}
}

// SetJobs pre-interns the flow table for a known job population, so
// the hot path never allocates map entries. Jobs not listed are still
// accepted and interned on first use.
func (s *Scheduler) SetJobs(jobIDs []string) {
	for _, id := range jobIDs {
		s.flowIdx(id)
	}
	s.indexed = true
}

func (s *Scheduler) flowIdx(jobID string) int {
	if i, ok := s.flowIDs[jobID]; ok {
		return i
	}
	i := len(s.flows)
	var rate float64
	if s.cfg.Rates != nil {
		rate = s.cfg.Rates(jobID)
	}
	s.flows = append(s.flows, flow{rate: rate})
	s.pending = append(s.pending, 0)
	s.names = append(s.names, jobID)
	s.flowIDs[jobID] = i
	return i
}

// Enqueue stamps the request with its earliest departure time and
// queues it. now is the current clock in nanoseconds.
func (s *Scheduler) Enqueue(req *tbf.Request, now int64) {
	i := s.flowIdx(req.JobID)
	f := &s.flows[i]
	dep := now
	if f.nextDeparture > dep {
		dep = f.nextDeparture
	}
	if max := now + s.horizon; dep > max {
		dep = max
		s.clamped++
	}
	if f.rate > 0 {
		f.nextDeparture = dep + int64(float64(req.Bytes)/f.rate*tbf.NanosPerSecond)
	} else {
		f.nextDeparture = dep
	}
	s.seq++
	s.push(entry{req: req, flow: i, departure: dep, seq: s.seq})
	s.pending[i]++
}

// Dequeue releases the earliest-departure request whose stamp has been
// reached. When the head is still in the future it returns
// (nil, departure, false) so the caller can sleep until that instant;
// an empty queue returns (nil, tbf.InfiniteDeadline, false).
func (s *Scheduler) Dequeue(now int64) (*tbf.Request, int64, bool) {
	if len(s.queue) == 0 {
		return nil, tbf.InfiniteDeadline, false
	}
	head := s.queue[0]
	if head.departure > now {
		return nil, head.departure, false
	}
	s.pop()
	s.pending[head.flow]--
	return head.req, 0, true
}

// Pending reports the number of queued requests.
func (s *Scheduler) Pending() int { return len(s.queue) }

// PendingForJob reports the number of queued requests for one job.
func (s *Scheduler) PendingForJob(jobID string) int {
	if i, ok := s.flowIDs[jobID]; ok {
		return s.pending[i]
	}
	return 0
}

// PendingJobs returns the per-job queued-request counts for jobs with
// at least one queued request.
func (s *Scheduler) PendingJobs() map[string]int {
	out := make(map[string]int)
	s.PendingJobsInto(out)
	return out
}

// PendingJobsInto adds the per-job queued-request counts into dst.
func (s *Scheduler) PendingJobsInto(dst map[string]int) {
	for i, n := range s.pending {
		if n > 0 {
			dst[s.names[i]] += n
		}
	}
}

// Clamped reports how many departures were pulled back to the horizon.
func (s *Scheduler) Clamped() int64 { return s.clamped }

// Horizon reports the effective horizon in nanoseconds.
func (s *Scheduler) Horizon() int64 { return s.horizon }

// NextDeparture reports a flow's next admissible departure timestamp,
// or 0 for an unknown flow. Test and introspection hook.
func (s *Scheduler) NextDeparture(jobID string) int64 {
	if i, ok := s.flowIDs[jobID]; ok {
		return s.flows[i].nextDeparture
	}
	return 0
}

func less(a, b entry) bool {
	if a.departure != b.departure {
		return a.departure < b.departure
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(e entry) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(s.queue[i], s.queue[parent]) {
			break
		}
		s.queue[i], s.queue[parent] = s.queue[parent], s.queue[i]
		i = parent
	}
}

func (s *Scheduler) pop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue[n] = entry{} // drop the request reference
	s.queue = s.queue[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(s.queue[l], s.queue[smallest]) {
			smallest = l
		}
		if r < n && less(s.queue[r], s.queue[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.queue[i], s.queue[smallest] = s.queue[smallest], s.queue[i]
		i = smallest
	}
}
