package main

import (
	"math"
	"sort"
)

// ladder is the set of tail percentiles a latency summary may report,
// highest first. The summary reports the highest one that still has at
// least minBeyond samples strictly above it, so a tail figure always rests
// on enough observations to repeat from run to run. The ladder stops at
// p99: above it a live run's tail is a handful of GC pauses and
// scheduler hiccups that do not repeat.
var ladder = []float64{99, 95, 90, 75, 50}

// minBeyond is the number of samples a tail percentile must leave above
// itself before the summary reports it.
const minBeyond = 10

// summary is a latency sample reduced to what the benchmark reports: the
// median and one tail percentile, with the counts that qualify them.
type summary struct {
	// N is the sample count.
	N int `json:"n"`
	// P50 is the median (the mean of the two middle values for even N).
	P50 float64 `json:"p50"`
	// TailPct is the reported tail percentile. It is 100 when no ladder
	// percentile has minBeyond samples above it; Tail is then the maximum.
	TailPct float64 `json:"tail_pct"`
	// Tail is the nearest-rank value at TailPct.
	Tail float64 `json:"tail"`
	// Beyond counts the samples strictly greater than Tail.
	Beyond int `json:"beyond"`
}

// liveLadder is the ladder of the live workload's latency tail. It starts
// at p95: on a shared virtual machine the hypervisor steals a few percent
// of CPU time in slices of several milliseconds (about 3 % on the 2-CPU
// VM the benchmark was tuned on), and 1.7–2.9 % of live resolves there
// took longer than the longest walk any of them makes. Above p95 the
// tail measures the host, not the program.
var liveLadder = ladder[1:]

// summarize computes the median and the highest ladder percentile with at
// least minBeyond samples strictly beyond it. Ties count as not beyond: a
// percentile that lands inside a run of equal values at the top of the
// sample has fewer samples above it than its rank suggests. xs is not
// modified.
func summarize(xs []float64) summary { return summarizeOn(xs, ladder) }

// summarizeOn is summarize with the given ladder of tail percentiles,
// highest first.
func summarizeOn(xs []float64, ladder []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n, TailPct: 100, Tail: s[n-1]}
	if n%2 == 1 {
		out.P50 = s[n/2]
	} else {
		out.P50 = (s[n/2-1] + s[n/2]) / 2
	}
	for _, p := range ladder {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest rank, 1-based
		if rank < 1 {
			rank = 1
		}
		v := s[rank-1]
		beyond := n - sort.Search(n, func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			out.TailPct, out.Tail, out.Beyond = p, v, beyond
			break
		}
	}
	return out
}

// median returns the middle of xs (0 for an empty slice).
func median(xs []float64) float64 { return summarize(xs).P50 }
