package main

import (
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func repeat(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want summary
	}{
		{"empty", nil, summary{}},
		{"one sample: the tail is the maximum", []float64{3}, summary{N: 1, P50: 3, TailPct: 100, Tail: 3}},
		{"n=9 < 10: no percentile has ten samples beyond", seq(9), summary{N: 9, P50: 5, TailPct: 100, Tail: 9}},
		{"n=10: even the median has only five beyond", seq(10), summary{N: 10, P50: 5.5, TailPct: 100, Tail: 10}},
		{"n=20: p50 has ten beyond", seq(20), summary{N: 20, P50: 10.5, TailPct: 50, Tail: 10, Beyond: 10}},
		{"n=1000: p99 has exactly ten beyond", seq(1000), summary{N: 1000, P50: 500.5, TailPct: 99, Tail: 990, Beyond: 10}},
		{"n=999: p99 has nine beyond, p95 qualifies", seq(999), summary{N: 999, P50: 500, TailPct: 95, Tail: 950, Beyond: 49}},
		{"all ties: nothing is beyond any percentile", repeat(7, 1000), summary{N: 1000, P50: 7, TailPct: 100, Tail: 7}},
		{"ties below ten high samples", append(repeat(1, 990), repeat(2, 10)...), summary{N: 1000, P50: 1, TailPct: 99, Tail: 1, Beyond: 10}},
		{"ties reach the p99 rank", append(repeat(1, 989), repeat(2, 11)...), summary{N: 1000, P50: 1, TailPct: 95, Tail: 1, Beyond: 11}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]float64(nil), tc.xs...)
			if got := summarize(tc.xs); got != tc.want {
				t.Errorf("summarize = %+v, want %+v", got, tc.want)
			}
			if !reflect.DeepEqual(in, tc.xs) {
				t.Errorf("summarize modified its input")
			}
		})
	}
}

func TestSummarizeLiveLadder(t *testing.T) {
	want := summary{N: 1000, P50: 500.5, TailPct: 95, Tail: 950, Beyond: 50}
	if got := summarizeOn(seq(1000), liveLadder); got != want {
		t.Errorf("summarizeOn(live ladder) = %+v, want %+v", got, want)
	}
	want = summary{N: 199, P50: 100, TailPct: 90, Tail: 180, Beyond: 19}
	if got := summarizeOn(seq(199), liveLadder); got != want {
		t.Errorf("summarizeOn(live ladder) = %+v, want %+v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "airql", Start: 0, End: 10},
		{ID: 2, Layer: "core", Start: 1, End: 3, Parent: 1},
		{ID: 3, Layer: "core", Start: 2, End: 5, Parent: 1},
		{ID: 4, Layer: "core", Start: 8, End: 12, Parent: 1}, // clipped to the parent
	}}
	got := tr.selfTimes()
	want := map[string]float64{"airql": 10 - 4 - 2, "core": 2 + 3 + 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var untraced *tracer
	if id := untraced.begin("core.Run", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	untraced.end(0)
}

// TestSpansNest checks that a span begun inside another is its child, so
// the roll-up charges the enclosing span only for its own time.
func TestSpansNest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.round", 0)
	run := tr.begin("core.Run", 1)
	tr.end(run)
	left := tr.begin("access.Walk", 2) // closed with its parent
	tr.end(root)
	next := tr.begin("bench.round", 1)
	tr.end(next)
	for _, c := range []struct{ id, parent int }{{root, 0}, {run, root}, {left, root}, {next, 0}} {
		if got := tr.spans[c.id-1].Parent; got != c.parent {
			t.Errorf("span %d has parent %d, want %d", c.id, got, c.parent)
		}
	}
	if s := tr.spans[left-1]; s.End == 0 || s.End != tr.spans[root-1].End {
		t.Errorf("span left open ends at %v, its parent at %v", s.End, tr.spans[root-1].End)
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans still open", len(tr.open))
	}
}

func TestStealShare(t *testing.T) {
	if _, ok := readCPUTimes(); !ok {
		t.Skip("no /proc/stat")
	}
	iv := startInterval()
	for x := 0; time.Since(iv.t0) < 50*time.Millisecond; x++ {
	}
	wall, steal := iv.stop()
	if wall < 0.05 || steal < 0 || steal > 1 {
		t.Errorf("stop() = %v s, steal share %v", wall, steal)
	}
}
