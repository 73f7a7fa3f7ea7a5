package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// minBeyondTail is how many samples must lie above a reported tail
// percentile: fewer, and the "p99" is one or two unlucky samples.
const minBeyondTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rankOf(n, q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile of n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// tailSupported reports whether n samples leave at least minBeyondTail
// samples above the nearest-rank q-quantile.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= minBeyondTail
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// fastQuartile is the quantile of a run's sample times (one minus it,
// of its rates) that ops_per_s reports: the pace of the faster quarter
// of samples. On a shared host another tenant's bursts slow some
// samples while a slower program slows all of them, so the fast
// quartile follows the program rather than its neighbours; a median
// moved by a quarter when a second process took one core half the time,
// the fast quartile by under a tenth.
const fastQuartile = 0.25

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// nodeWeightedJain is Jain's fairness index over each tenant's served
// work per compute node: (Σx)² / (n·Σx²) with x_i = served_i / nodes_i.
// 1 means every tenant got service in proportion to its nodes — the
// paper's notion of a fair share; 1/n means one tenant got everything.
func nodeWeightedJain(served []float64, nodes []int) float64 {
	var sum, sq float64
	for i, s := range served {
		x := s / float64(max(nodes[i], 1))
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(served)) * sq)
}

// poissonSchedule returns the due offsets (ns from start) of a Poisson
// arrival process at rate per second over span, drawn from seed alone.
func poissonSchedule(seed int64, rate float64, span time.Duration) []int64 {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	out := make([]int64, 0, int(rate*span.Seconds()*1.1)+16)
	meanGap := float64(time.Second) / rate
	var t float64
	for {
		t += rng.ExpFloat64() * meanGap
		if t >= float64(span) {
			return out
		}
		out = append(out, int64(t))
	}
}
