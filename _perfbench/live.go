package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/aircast"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

const (
	// liveRecords sizes the live broadcasts.
	liveRecords = 2000
	// liveKeys is the number of keys each scheme's session resolves per
	// pass. They are drawn as on the sim-* workloads: stored keys with
	// the Table 1 availability of core.DefaultConfig.
	liveKeys = 800
	// liveSetupReps is how often set-up builds each scheme's server;
	// setup_s sums the per-scheme medians.
	liveSetupReps = 5
	// fanoutDatagrams is the length of the bare-receiver drain.
	fanoutDatagrams = 200_000
)

// liveSchemes are the schemes the live workload serves: flat reads every
// frame, the two index schemes doze through most of them.
var liveSchemes = []string{"flat", "distributed", "hashing"}

// liveScheme is one running broadcast with its receiving session.
type liveScheme struct {
	name string
	bc   access.Broadcast
	ds   *datagen.Dataset
	prog aircast.Program
	srv  *aircast.Server
	sess *aircast.Session
	keys []uint64
}

// resolveRecord is one timed resolve kept for the output check.
type resolveRecord struct {
	scheme int
	key    uint64
	res    aircast.NetResult
}

// runLive starts one unpaced in-process aircast server per scheme with
// one Session on the lossless in-process transport (set-up), then
// resolves each scheme's key list in turn, pass after pass, until the
// budget is spent (timed). It is a closed loop with one receiver: the
// next resolve starts when the previous one returns. The latency tail is
// taken per pass on the live ladder, and the median pass tail is
// reported, so a burst of load from outside the process moves one pass's
// tail, not the result. An operation is a resolve; the first pass's
// resolves are checked against the simulator.
//
// Unlike sim-* and sweep, live times are not net of steal (steal.go).
// The VM books 35–40 % of live's busy CPU time as steal, against 0–13 %
// on the CPU-bound workloads: its two goroutines hand every datagram to
// each other, and the wait to wake a halted virtual CPU is booked as
// steal. Removing it would remove the program's own hand-off cost.
func runLive(e *env) (*outcome, error) {
	keys := liveKeys
	if e.probe {
		keys = 100
	}
	out := &outcome{inputs: map[string]any{
		"schemes":         liveSchemes,
		"records":         liveRecords,
		"keys_per_scheme": keys,
		"availability":    core.DefaultConfig(liveSchemes[0], liveRecords).Availability,
		"transport":       "inmem",
		"paced":           false,
	}}
	schemes := make([]*liveScheme, len(liveSchemes))
	defer func() {
		for _, ls := range schemes {
			if ls != nil {
				ls.close()
			}
		}
	}()
	var buildImageS float64
	root := e.tr.begin("bench.setup", 0)
	for i, name := range liveSchemes {
		var times []float64
		for r := 0; r < liveSetupReps; r++ {
			// Stop the previous build and start every one from a
			// collected heap, so the set-up's garbage does not set the
			// peak resident set (it moved it by up to 9 MB).
			if schemes[i] != nil {
				schemes[i].close()
				schemes[i] = nil
			}
			runtime.GC()
			t0 := time.Now()
			ls, imgS, err := startLive(e, name, i, keys)
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(t0).Seconds())
			buildImageS += imgS / liveSetupReps
			schemes[i] = ls
		}
		out.setupS += median(times)
	}
	e.tr.end(root)
	e.setLayer("aircast.build_image_s", buildImageS)

	datagrams := func() int64 {
		var n int64
		for _, ls := range schemes {
			n += ls.srv.Metrics().Datagrams.Load()
		}
		return n
	}
	var kept []resolveRecord
	var probes int64
	var tailPct float64
	start := time.Now()
	d0 := datagrams()
	for pass := 0; ; pass++ {
		p0 := time.Now()
		first := len(out.opsMS)
		root := e.tr.begin("bench.pass", int64(pass))
		for si, ls := range schemes {
			for _, key := range ls.keys {
				id := e.tr.begin("aircast.ResolveKey", out.requests)
				t0 := time.Now()
				res, err := ls.sess.ResolveKey(key)
				d := time.Since(t0)
				e.tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("%s key %d: %w", ls.name, key, err)
				}
				out.opsMS = append(out.opsMS, float64(d.Nanoseconds())/1e6)
				out.requests++
				probes += int64(res.Probes)
				if pass == 0 {
					kept = append(kept, resolveRecord{si, key, res})
				}
			}
		}
		e.tr.end(root)
		last := time.Since(p0)
		out.passS = append(out.passS, last.Seconds())
		tail := summarizeOn(out.opsMS[first:], liveLadder)
		out.passTail = append(out.passTail, tail.Tail)
		tailPct = tail.TailPct
		if e.probe || (time.Since(start)+last).Seconds() > e.seconds {
			break
		}
	}
	out.timedS = time.Since(start).Seconds()
	out.samples = map[string]any{"pass_tail_ms": out.passTail, "pass_tail_pct": tailPct}
	delivered := datagrams() - d0

	if e.traced() {
		e.setLayer("aircast.datagrams_per_s", float64(delivered)/out.timedS)
		e.setLayer("aircast.datagrams_per_resolve", float64(delivered)/float64(out.requests))
		e.setLayer("aircast.read_frac", float64(probes)/float64(delivered))
		root := e.tr.begin("bench.replay", 0)
		err := replayLive(e, schemes)
		e.tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	if !e.probe && !e.traced() {
		checkLive(schemes, kept, out)
	}
	return out, nil
}

// startLive builds one scheme's broadcast and image, starts its server
// and attaches a session. It returns the image build time.
func startLive(e *env, name string, i, keys int) (*liveScheme, float64, error) {
	cfg := core.DefaultConfig(name, liveRecords)
	cfg.Data.Seed = sim.StreamSeed(e.seed, i, "perfbench/live-data")
	ls := &liveScheme{name: name}
	id := e.tr.begin("datagen.Generate", int64(i))
	t0 := time.Now()
	ds, err := datagen.Generate(cfg.Data)
	genS := time.Since(t0).Seconds()
	e.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = e.tr.begin("core.BuildBroadcast", int64(i))
	t0 = time.Now()
	bc, err := core.BuildBroadcast(ds, cfg)
	buildS := time.Since(t0).Seconds()
	e.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	e.addLayer("datagen.generate_s", genS/liveSetupReps)
	e.addLayer("core.build_s", buildS/liveSetupReps)
	ls.ds, ls.bc = ds, bc
	ls.prog = aircast.Program{Scheme: name, Contract: contractFor(cfg, bc)}

	id = e.tr.begin("aircast.BuildImage", int64(i))
	t0 = time.Now()
	img, err := aircast.BuildImage(1, ls.prog, bc.Channel())
	imgS := time.Since(t0).Seconds()
	e.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	srv, err := aircast.NewServer(aircast.Config{}, img)
	if err != nil {
		return nil, 0, err
	}
	if err := srv.Start(); err != nil {
		return nil, 0, err
	}
	ls.srv = srv
	rx, err := aircast.Dial(aircast.TransportInmem, srv)
	if err != nil {
		srv.Stop()
		return nil, 0, err
	}
	ls.prog = srv.Program()
	ls.sess = aircast.NewSession(rx, ls.prog)

	st := newStream(ds, cfg.Availability, cfg.RequestMean, keys, sim.StreamSeed(e.seed, i, "perfbench/live-keys"))
	ls.keys = st.keys
	return ls, imgS, nil
}

func (ls *liveScheme) close() {
	if ls.sess != nil {
		_ = ls.sess.Close()
	}
	ls.srv.Stop()
}

// contractFor is the out-of-band service contract a network client is
// handed for a broadcast.
func contractFor(cfg core.Config, bc access.Broadcast) airborne.Contract {
	c := airborne.Contract{
		RecordSize:   cfg.Data.RecordSize,
		KeySize:      cfg.Data.KeySize,
		NumRecords:   cfg.Data.NumRecords,
		SigBytes:     cfg.Signature.SigBytes,
		BitsPerField: cfg.Signature.BitsPerField,
	}
	switch b := bc.(type) {
	case *dist.Broadcast:
		c.TreeLayout = b.Layout()
	case *onem.Broadcast:
		c.TreeLayout = b.Layout()
	case *hashing.Broadcast:
		c.HashPositions = int(b.Params()["Na"])
	}
	return c
}

// predict is the simulator's answer for a live resolve: the same
// airborne client walked by access.Walk, arriving at the start of the
// first bucket the session fed it.
func predict(ls *liveScheme, key uint64, first units.BucketIndex) (access.Result, error) {
	ch := ls.bc.Channel()
	if !first.InCycle(ch.NumBuckets()) {
		return access.Result{}, fmt.Errorf("first bucket %d outside the cycle", first)
	}
	cl, err := airborne.NewClient(ls.prog.Scheme, airborne.NewBytes(ch), ls.prog.Contract, key)
	if err != nil {
		return access.Result{}, err
	}
	return access.Walk(ch, cl, ch.StartInCycle(first).At(0), 0)
}

// checkLive is the live output check, the lossless contract: no
// restarts, a Result bit-identical to the access.Walk prediction from
// the first bucket, and Found equal to the broadcast's ground truth.
func checkLive(schemes []*liveScheme, kept []resolveRecord, out *outcome) {
	for _, r := range kept {
		ls := schemes[r.scheme]
		out.attempted++
		pred, err := predict(ls, r.key, r.res.FirstBucket)
		if err == nil {
			err = checkResolve(ls, r, pred)
		}
		if err != nil {
			out.fail("%s key %d: %v", ls.name, r.key, err)
		}
	}
}

// checkResolve holds one live resolve to the lossless contract, given
// the simulator's prediction for it.
func checkResolve(ls *liveScheme, r resolveRecord, pred access.Result) error {
	res := r.res
	switch {
	case res.Restarts != 0 || res.EpochRestarts != 0 || res.Unrecovered:
		return fmt.Errorf("recovery on a lossless transport: %+v", res)
	case res.Result != pred:
		return fmt.Errorf("from bucket %d: live %+v, simulator %+v", res.FirstBucket, res.Result, pred)
	case res.Found != ls.bc.Contains(r.key):
		return fmt.Errorf("found %v, ground truth %v", res.Found, !res.Found)
	}
	return nil
}

// replayLive times the live path's layers from outside: datagram framing
// and verification over every frame of each image (wire), a bare
// in-process receiver draining an unpaced server (aircast fan-out), and
// the airborne clients decoding real bucket bytes with no transport.
func replayLive(e *env, schemes []*liveScheme) error {
	var enc, dec, walk mean
	for si, ls := range schemes {
		ch := ls.bc.Channel()
		n := int(ch.NumBuckets())
		dgs := make([]wire.Datagram, n)
		for i := 0; i < n; i++ {
			idx := units.Index(i)
			dgs[i] = wire.Datagram{Epoch: 1, Offset: ch.StartInCycle(idx), Bucket: idx, Payload: ch.Bucket(idx).Encode()}
		}
		frames := make([][]byte, n)
		id := e.tr.begin("wire.EncodeDatagram", int64(si))
		ns, calls, _ := perCall(math.MaxInt32, e.replayBudget()/2, func(i int) error {
			frames[i%n] = wire.EncodeDatagram(dgs[i%n])
			return nil
		})
		e.tr.end(id)
		enc.add(ns, calls)
		for i := calls; i < n; i++ { // frames the budget left unencoded
			frames[i] = wire.EncodeDatagram(dgs[i])
		}
		id = e.tr.begin("wire.DecodeDatagram", int64(si))
		ns, calls, err := perCall(math.MaxInt32, e.replayBudget()/2, func(i int) error {
			_, err := wire.DecodeDatagram(frames[i%n])
			return err
		})
		e.tr.end(id)
		if err != nil {
			return err
		}
		dec.add(ns, calls)

		cfg := core.DefaultConfig(ls.name, 1)
		st := newStream(ls.ds, cfg.Availability, cfg.RequestMean, 4096,
			sim.StreamSeed(e.seed, si, "perfbench/replay/live"))
		id = e.tr.begin("airborne.Walk", int64(si))
		ns, calls, err = perCall(len(st.keys), e.replayBudget(), func(i int) error {
			cl, err := airborne.NewClient(ls.prog.Scheme, airborne.NewBytes(ch), ls.prog.Contract, st.keys[i])
			if err != nil {
				return err
			}
			_, err = access.Walk(ch, cl, st.arrivals[i], 0)
			return err
		})
		e.tr.end(id)
		if err != nil {
			return err
		}
		walk.add(ns, calls)
	}
	e.setLayer("wire.encode_ns", enc.value())
	e.setLayer("wire.decode_ns", dec.value())
	e.setLayer("airborne.walk_ns", walk.value())
	return replayFanout(e, schemes[0])
}

// replayFanout drains an unpaced server with a bare in-process receiver
// (no session), so the time per datagram is the transmitter's fan-out
// and queue hand-off alone.
func replayFanout(e *env, ls *liveScheme) error {
	img, err := aircast.BuildImage(1, ls.prog, ls.bc.Channel())
	if err != nil {
		return err
	}
	srv, err := aircast.NewServer(aircast.Config{}, img)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Stop()
	rx := srv.Subscribe()
	defer rx.Close()
	n := fanoutDatagrams
	if e.probe {
		n /= 10
	}
	id := e.tr.begin("aircast.Recv", 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := rx.Recv(); !ok {
			return fmt.Errorf("aircast: stream ended after %d datagrams", i)
		}
	}
	e.setLayer("aircast.fanout_ns_per_datagram", float64(time.Since(t0).Nanoseconds())/float64(n))
	e.tr.end(id)
	return nil
}
