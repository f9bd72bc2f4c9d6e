package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/cohort"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/stats"
)

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. Names are "<layer>.<quantity>".
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"datagen.generate_s", "s"},
		{"datagen.allocs", "count"},
		{"core.build_s", "s"},
		{"core.build_allocs", "count"},
		{"core.new_s", "s"},
		{"core.run_s", "s"},
		{"core.allocs_per_req", "count"},
		{"core.events_per_req", "count"},
	}
	for _, pts := range [][]simPoint{simClean, simFaulty} {
		for _, p := range pts {
			m = append(m, struct{ name, unit string }{"core.ns_per_req." + p.Name, "ns"})
		}
	}
	return append(m, []struct{ name, unit string }{
		{"access.walk_ns", "ns"},
		{"access.walk_recover_ns", "ns"},
		{"access.walk_multi_ns", "ns"},
		{"access.probes_per_req", "count"},
		{"access.restarts_per_req", "count"},
		{"access.wasted_frac", "frac"},
		{"cohort.resolve_ns_per_lane", "ns"},
		{"cohort.advance_ns_per_lane", "ns"},
		{"stats.fold_ns_per_sample", "ns"},
		{"stats.merge_ns", "ns"},
		{"airql.compile_s", "s"},
		{"airql.execute_s", "s"},
		{"airql.emit_s", "s"},
		{"airql.points", "count"},
		{"airql.setup_share", "frac"},
		{"wire.encode_ns", "ns"},
		{"wire.decode_ns", "ns"},
		{"aircast.build_image_s", "s"},
		{"aircast.fanout_ns_per_datagram", "ns"},
		{"aircast.datagrams_per_resolve", "count"},
		{"aircast.read_frac", "frac"},
		{"aircast.datagrams_per_s", "1/s"},
		{"airborne.walk_ns", "ns"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_frac", "frac"},
	}...)
}()

// stream is a replayed sample of a workload's request stream: keys and
// arrival times drawn the way the simulator draws them (uniform keys, a
// stored key with the given availability, exponential gaps with the
// configured mean), from the benchmark's own seed.
type stream struct {
	keys     []uint64
	arrivals []sim.Time
}

func newStream(ds *datagen.Dataset, availability, mean float64, n int, seed int64) stream {
	rng := sim.NewRNG(seed)
	st := stream{keys: make([]uint64, n), arrivals: make([]sim.Time, n)}
	var t sim.Time
	for i := 0; i < n; i++ {
		j := rng.Intn(ds.Len())
		if availability >= 1 || rng.Float64() < availability {
			st.keys[i] = ds.KeyAt(j)
		} else {
			st.keys[i] = ds.MissingKeyNear(j)
		}
		t += rng.Exponential(mean)
		st.arrivals[i] = t
	}
	return st
}

// replayBudget bounds the wall time of one replay, so the stepped
// walkers (a flat scan reads half the cycle per request) stay cheap.
func (e *env) replayBudget() time.Duration {
	if e.probe {
		return 30 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// perCall times fn over i = 0..n-1, stopping early once budget is spent,
// and returns the mean wall time per call in ns and the calls made.
func perCall(n int, budget time.Duration, fn func(i int) error) (float64, int, error) {
	t0 := time.Now()
	i := 0
	for i < n {
		if err := fn(i); err != nil {
			return 0, i, err
		}
		i++
		if i%16 == 0 && time.Since(t0) > budget {
			break
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(i), i, nil
}

// mean accumulates a weighted average of per-call timings.
type mean struct{ sum, n float64 }

func (m *mean) add(v float64, n int) { m.sum += v * float64(n); m.n += float64(n) }
func (m *mean) merge(o mean)         { m.sum += o.sum; m.n += o.n }
func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// replayWalk feeds st through access.Walk on bc's channel, appending the
// access times it produced to accessOut (for the stats replay) when
// that is not nil.
func replayWalk(e *env, bc access.Broadcast, st stream, accessOut *[]float64) (mean, error) {
	ch := bc.Channel()
	id := e.tr.begin("access.Walk", 0)
	ns, n, err := perCall(len(st.keys), e.replayBudget(), func(i int) error {
		r, err := access.Walk(ch, bc.NewClient(st.keys[i]), st.arrivals[i], 0)
		if accessOut != nil {
			*accessOut = append(*accessOut, float64(r.Access))
		}
		return err
	})
	e.tr.end(id)
	var m mean
	m.add(ns, n)
	return m, err
}

// replayRecover feeds st through access.WalkRecover with the point's
// fault model and recovery policy, one injector per replay as one shard.
func replayRecover(e *env, bc access.Broadcast, fc faults.Config, seed int64, st stream) (mean, error) {
	ch := bc.Channel()
	inj := faults.New(fc, seed, 0)
	pol := access.RecoverPolicy{MaxRetries: fc.MaxRetries, NextCycle: fc.Recovery == faults.RecoverNextCycle}
	id := e.tr.begin("access.WalkRecover", 0)
	ns, n, err := perCall(len(st.keys), e.replayBudget(), func(i int) error {
		key := st.keys[i]
		inj.StartRequest()
		_, err := access.WalkRecover(ch, func() access.Client { return bc.NewClient(key) }, st.arrivals[i], inj, pol, 0)
		return err
	})
	e.tr.end(id)
	var m mean
	m.add(ns, n)
	return m, err
}

// replayMulti feeds st through access.WalkMulti on a K-channel set.
func replayMulti(e *env, bc access.Broadcast, set *multichannel.Set, st stream) (mean, error) {
	id := e.tr.begin("access.WalkMulti", 0)
	ns, n, err := perCall(len(st.keys), e.replayBudget(), func(i int) error {
		_, err := access.WalkMulti(set, bc.NewClient(st.keys[i]), st.arrivals[i], 0)
		return err
	})
	e.tr.end(id)
	var m mean
	m.add(ns, n)
	return m, err
}

// loadBatch fills a cohort batch with the first n lanes of st.
func loadBatch(b *cohort.Batch, st stream, n int) {
	b.Reset(n)
	copy(b.Arrival, st.arrivals[:n])
	copy(b.Key, st.keys[:n])
}

// replayResolve feeds st through Batch.ResolveLanes (closed-form
// schemes), repeating the batch until the budget is spent.
func replayResolve(e *env, r access.Resolver, st stream) (mean, error) {
	b := cohort.New()
	id := e.tr.begin("cohort.ResolveLanes", 0)
	defer e.tr.end(id)
	var m mean
	var spent time.Duration
	for spent < e.replayBudget() {
		loadBatch(b, st, len(st.keys))
		t0 := time.Now()
		ok := b.ResolveLanes(r)
		d := time.Since(t0)
		if !ok {
			return m, fmt.Errorf("cohort: resolver declined a clean lane")
		}
		spent += d
		m.add(float64(d.Nanoseconds())/float64(b.Len()), b.Len())
	}
	return m, nil
}

// replayAdvance feeds st through Batch.AdvanceClean (stepped kernel),
// growing the batch from a few lanes until the budget is spent. Client
// construction happens outside the timed call, as in the engine.
func replayAdvance(e *env, bc access.Broadcast, st stream) (mean, error) {
	b := cohort.New()
	ch := bc.Channel()
	id := e.tr.begin("cohort.AdvanceClean", 0)
	defer e.tr.end(id)
	var m mean
	var spent time.Duration
	for n := 8; spent < e.replayBudget() && n <= len(st.keys); n *= 2 {
		loadBatch(b, st, n)
		for i := 0; i < n; i++ {
			b.Clients[i] = bc.NewClient(b.Key[i])
		}
		t0 := time.Now()
		ok := b.AdvanceClean(ch, 0)
		d := time.Since(t0)
		if !ok {
			return m, fmt.Errorf("cohort: lane %d failed (kind %d)", b.FailLane, b.FailKind)
		}
		spent += d
		m.add(float64(d.Nanoseconds())/float64(n), n)
	}
	return m, nil
}

// replayStats folds xs through the Welford and P² accumulators the
// engines use (Sample.AddAll + Quantile.AddAll), then times the shard
// merge (Sample.Merge + Quantile.Merge) of two halves.
func replayStats(e *env, xs []float64) error {
	if len(xs) < 16 {
		return fmt.Errorf("stats replay: only %d samples", len(xs))
	}
	id := e.tr.begin("stats.AddAll", 0)
	var fold mean
	var spent time.Duration
	for spent < e.replayBudget()/2 {
		var s stats.Sample
		q := stats.MustQuantile(0.99)
		t0 := time.Now()
		s.AddAll(xs)
		q.AddAll(xs)
		d := time.Since(t0)
		spent += d
		fold.add(float64(d.Nanoseconds())/float64(len(xs)), len(xs))
	}
	e.tr.end(id)
	e.setLayer("stats.fold_ns_per_sample", fold.value())

	half := len(xs) / 2
	var a, b stats.Sample
	a.AddAll(xs[:half])
	b.AddAll(xs[half:])
	qa, qb := stats.MustQuantile(0.99), stats.MustQuantile(0.99)
	qa.AddAll(xs[:half])
	qb.AddAll(xs[half:])
	const merges = 4096
	sa := make([]stats.Sample, merges)
	qs := make([]*stats.Quantile, merges)
	for i := range sa {
		sa[i] = a
		qs[i] = stats.MustQuantile(0.99)
		qs[i].Merge(qa) // a private copy of qa to merge into
	}
	id = e.tr.begin("stats.Merge", 0)
	t0 := time.Now()
	for i := range sa {
		sa[i].Merge(&b)
		qs[i].Merge(qb)
	}
	e.setLayer("stats.merge_ns", float64(time.Since(t0).Nanoseconds())/merges)
	e.tr.end(id)
	return nil
}

// allocsDuring returns fn's wall time and heap allocation count.
func allocsDuring(fn func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, err
}

// replaySetup times datagen.Generate for cfg's dataset and
// core.BuildBroadcast for every config in cfgs over that dataset. It
// returns the dataset, the broadcasts, the generate time and the mean
// per-build wall time.
func replaySetup(e *env, cfgs []core.Config) (ds *datagen.Dataset, bcs []access.Broadcast, genS, buildMeanS float64, err error) {
	id := e.tr.begin("datagen.Generate", 0)
	d, allocs, err := allocsDuring(func() error {
		var err error
		ds, err = datagen.Generate(cfgs[0].Data)
		return err
	})
	e.tr.end(id)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	e.setLayer("datagen.generate_s", d.Seconds())
	e.setLayer("datagen.allocs", float64(allocs))
	var total time.Duration
	var totalAllocs uint64
	for i, cfg := range cfgs {
		id := e.tr.begin("core.BuildBroadcast", int64(i))
		var bc access.Broadcast
		d, allocs, err := allocsDuring(func() error {
			var err error
			bc, err = core.BuildBroadcast(ds, cfg)
			return err
		})
		e.tr.end(id)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		bcs = append(bcs, bc)
		total += d
		totalAllocs += allocs
	}
	e.setLayer("core.build_s", total.Seconds())
	e.setLayer("core.build_allocs", float64(totalAllocs))
	return ds, bcs, d.Seconds(), total.Seconds() / float64(len(cfgs)), nil
}
