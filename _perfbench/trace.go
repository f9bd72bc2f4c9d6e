package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls, or one of the benchmark's own root spans
// (layer "bench": a set-up phase, a sweep script, a round of sim points,
// a live pass, a replay) that encloses such calls. Times are seconds
// since the tracer started. Parent is the innermost span open when the
// span began. Spans of one operation share Req.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes apart from the span bookkeeping itself.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // ids of the spans begun and not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named "<layer>.<call>" inside the innermost open
// span and returns its id (0 when untraced). The benchmark calls into
// the program from one goroutine, so spans nest as the calls do.
func (t *tracer) begin(name string, req int64) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Layer: layer,
		Start: time.Since(t.t0).Seconds(), Parent: parent, Req: req,
	})
	t.open = append(t.open, len(t.spans))
	return len(t.spans)
}

// end closes the span begin returned, and any span left open inside it.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top-1].End = now
		if top == id {
			return
		}
	}
}

// selfTimes rolls span time up per layer: a span's self time is its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Layer] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total := 0.0
	curS, curE := kids[0].Start, kids[0].End
	flush := func() {
		s, e := max(curS, parent.Start), min(curE, parent.End)
		if e > s {
			total += e - s
		}
	}
	for _, k := range kids[1:] {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
			continue
		}
		curE = max(curE, k.End)
	}
	flush()
	return total
}

// write stores the spans and the per-layer self-time roll-up as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans    []span             `json:"spans"`
		SelfTime map[string]float64 `json:"self_time_s"`
	}{t.spans, t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
