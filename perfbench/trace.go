package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptbf/internal/obs"
)

// Layer names, one per module the benchmark times from outside. A
// span's layer is the module whose public call it brackets.
const (
	layerHarness    = "harness"
	layerSim        = "sim"
	layerWorkgen    = "workgen"
	layerController = "controller"
	layerTransport  = "transport"
	layerCluster    = "cluster"
)

// traceLayers lists every layer in the order self times are reported.
var traceLayers = []string{layerHarness, layerSim, layerWorkgen, layerController, layerTransport, layerCluster}

// maxSpans bounds the spans kept in memory. Once reached, recording
// stops for the rest of the run (children always end, and are added,
// before their parent, so a stored parent never misses a child).
const maxSpans = 1 << 19

// maxExportSpans bounds the spans written to the Chrome trace file so
// it stays loadable; self times use every stored span.
const maxExportSpans = 50000

// A span is one bracketed call into a layer. req groups the spans of
// one request (an RPC, a cell); parent is 0 for a root span.
type span struct {
	id, parent, req uint64
	layer, name     string
	tid             int64
	start, end      int64 // ns since the recorder's epoch
}

// A recorder keeps spans in memory for a traced run. Safe for
// concurrent use; a nil *recorder records nothing.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder's clock: ns since its epoch (monotonic).
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newID returns a span id from a range disjoint from rpcSpanID's.
func (r *recorder) newID() uint64 { return 1<<63 | r.ids.Add(1) }

// add stores s, or counts it as dropped once maxSpans is reached.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans && r.dropped == 0 {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// rpcSpanID derives the span id of one layer of one RPC from its
// request key, so the client and server sides link without talking.
// part is 1 (transport call), 2 (OSS residence) or 3 (inside Handle).
func rpcSpanID(key uint64, part uint64) uint64 { return key<<2 | part }

// selfTimes returns each layer's self time in ns: every span's duration
// minus the union of its children's intervals (clipped to the span),
// summed per layer. Children may overlap each other (parallel cells).
func selfTimes(spans []span) map[string]int64 {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if _, ok := byID[s.parent]; ok && s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer] += (s.end - s.start) - covered(s.start, s.end, kids[s.id])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeChrome exports the first maxExportSpans spans as a Chrome
// trace-event document in the repository's obs format: complete events,
// category = layer, id = request key, span and parent ids in args.
func (r *recorder) writeChrome(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	spans := r.spans[:min(len(r.spans), maxExportSpans)]
	events := make([]obs.Event, len(spans))
	for i, s := range spans {
		events[i] = obs.Event{
			Name: s.name, Cat: s.layer, Phase: obs.PhaseComplete,
			TS: s.start, Dur: s.end - s.start, TID: s.tid, ID: s.req,
			Args: map[string]any{"span": s.id, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(w, []obs.TraceProcess{{Name: name, Events: events}}); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
