package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// simPoint is one fixed simulation of the sim-* workloads.
type simPoint struct {
	Name       string  `json:"name"`
	Scheme     string  `json:"scheme"`
	Engine     string  `json:"engine"`
	Requests   int     `json:"requests"`
	Drop       float64 `json:"drop,omitempty"`
	Channels   int     `json:"channels,omitempty"`
	SwitchCost int     `json:"switch_cost,omitempty"`
}

const (
	// simRecords is the Fig. 4 midpoint; Table 1 geometry otherwise.
	simRecords = 17500
	// simShards splits every run into two request streams, so the events
	// engine runs two event loops; results depend on it, so it is fixed.
	simShards = 2
	// simRefSeconds is the budget the request counts below are sized for;
	// other budgets scale every count in proportion.
	simRefSeconds = 15
	// checkRequests is the request count of the cross-engine check.
	checkRequests = 1000
	// simRounds is how often the point list runs; each round serves
	// 1/simRounds of every point's requests.
	simRounds = 15
	// simSetupReps is how often set-up builds each point's simulator;
	// setup_s sums the per-point medians.
	simSetupReps = 5
)

// simClean runs the request engines on a perfect single channel: the
// closed-form resolver (flat, broadcast disks), the stepped kernel and
// the sharded event loop (index schemes), and the stepped worst case
// (signature).
var simClean = []simPoint{
	{Name: "flat", Scheme: "flat", Engine: core.EngineCohort, Requests: 1_000_000},
	{Name: "bdisk", Scheme: "broadcast-disks", Engine: core.EngineCohort, Requests: 1_000_000},
	{Name: "dist-cohort", Scheme: "distributed", Engine: core.EngineCohort, Requests: 1_000_000},
	{Name: "dist-events", Scheme: "distributed", Engine: core.EngineEvents, Requests: 1_000_000},
	{Name: "hash-cohort", Scheme: "hashing", Engine: core.EngineCohort, Requests: 1_000_000},
	{Name: "hash-events", Scheme: "hashing", Engine: core.EngineEvents, Requests: 1_000_000},
	{Name: "onem-cohort", Scheme: "(1,m)", Engine: core.EngineCohort, Requests: 1_000_000},
	{Name: "onem-events", Scheme: "(1,m)", Engine: core.EngineEvents, Requests: 1_000_000},
	{Name: "sig", Scheme: "signature", Engine: core.EngineCohort, Requests: 10_000},
}

// simFaulty runs the lanes that leave the cohort fast path: 1 % bucket
// drop with restart recovery, and K = 4 replicated channels with a 1 KiB
// switch cost.
var simFaulty = []simPoint{
	{Name: "flat-drop", Scheme: "flat", Engine: core.EngineCohort, Requests: 20_000, Drop: 0.01},
	{Name: "dist-drop", Scheme: "distributed", Engine: core.EngineCohort, Requests: 1_000_000, Drop: 0.01},
	{Name: "flat-k4", Scheme: "flat", Engine: core.EngineCohort, Requests: 7_500, Channels: 4, SwitchCost: 1024},
	{Name: "dist-k4", Scheme: "distributed", Engine: core.EngineCohort, Requests: 1_000_000, Channels: 4, SwitchCost: 1024},
}

// config builds the point's simulator configuration. Every input derives
// from the workload seed: the dataset, the arrival and key streams, and
// the fault process.
func (p simPoint) config(seed int64, requests int) core.Config {
	cfg := core.DefaultConfig(p.Scheme, simRecords)
	cfg.Data.Seed = sim.StreamSeed(seed, 0, "perfbench/data")
	cfg.Seed = sim.StreamSeed(seed, 0, "perfbench/run")
	cfg.MinRequests, cfg.MaxRequests = requests, requests
	cfg.Engine = p.Engine
	cfg.Shards = simShards
	if p.Drop > 0 {
		cfg.Faults = faults.FromRate(faults.ModelDrop, p.Drop)
	}
	if p.Channels > 0 {
		cfg.Multi = multichannel.Config{Channels: p.Channels, SwitchCost: units.Bytes(p.SwitchCost)}
	}
	return cfg
}

// roundRequests is the point's request count scaled to the budget
// (probes run 2 % of it) and split over the rounds, never below one
// accuracy-control round.
func (p simPoint) roundRequests(e *env, rounds int) int {
	n := float64(p.Requests) * e.seconds / simRefSeconds / float64(rounds)
	if e.probe {
		n /= 50
	}
	return max(int(math.Round(n)), core.DefaultConfig(p.Scheme, 1).RoundSize)
}

// runSim builds every point's simulator simSetupReps times (set-up;
// setup_s sums each point's median core.New time), then runs the point
// list simRounds times, each point serving requests/simRounds requests
// per Simulator.Run (timed). A point's time is the median over the
// rounds, so a burst of load from outside the process slows a round, not
// the result. Times are net of steal (steal.go), taken per point's
// set-up and per round. An operation is a point. Every round of a point
// must return the same Result; after the timed rounds each point is
// checked across the events and cohort engines at a reduced request
// count.
func runSim(e *env, points []simPoint) (*outcome, error) {
	out := &outcome{}
	type input struct {
		simPoint
		Requests int `json:"requests"`
		Rounds   int `json:"rounds"`
		Records  int `json:"records"`
		Shards   int `json:"shards"`
	}
	rounds := simRounds
	if e.probe {
		rounds = 1
	}
	var inputs []input
	sims := make([]*core.Simulator, len(points))
	cfgs := make([]core.Config, len(points))
	setupReps := simSetupReps
	if e.probe {
		setupReps = 1
	}
	var newS float64
	root := e.tr.begin("bench.setup", 0)
	for i, p := range points {
		n := p.roundRequests(e, rounds)
		cfgs[i] = p.config(e.seed, n)
		inputs = append(inputs, input{p, n, rounds, simRecords, simShards})
		times := make([]float64, setupReps)
		iv := startInterval()
		for r := range times {
			// Time every build from a collected heap, as every Run is.
			sims[i] = nil
			runtime.GC()
			id := e.tr.begin("core.New", int64(i))
			t0 := time.Now()
			s, err := core.New(cfgs[i])
			times[r] = time.Since(t0).Seconds()
			e.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			sims[i] = s
		}
		_, stolen := iv.stop()
		out.steal = append(out.steal, stolen)
		newS += median(times) * (1 - stolen)
	}
	e.tr.end(root)
	out.setupS = newS
	e.setLayer("core.new_s", newS)
	out.inputs = inputs

	times := make([][]float64, len(points))
	first := make([]*core.Result, len(points))
	short := map[string]string{}
	var allocs uint64
	for r := 0; r < rounds; r++ {
		root := e.tr.begin("bench.round", int64(r))
		iv := startInterval()
		for i, p := range points {
			var res *core.Result
			var d time.Duration
			var err error
			// Start every Run from a collected heap, so one point's
			// garbage is not collected on the next point's clock.
			runtime.GC()
			id := e.tr.begin("core.Run", int64(i))
			if e.traced() {
				var n uint64
				d, n, err = allocsDuring(func() error {
					var err error
					res, err = sims[i].Run()
					return err
				})
				allocs += n
			} else {
				t0 := time.Now()
				res, err = sims[i].Run()
				d = time.Since(t0)
			}
			e.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			times[i] = append(times[i], d.Seconds())
			out.requests += res.Requests
			switch {
			case res.Requests != int64(cfgs[i].MaxRequests):
				short[p.Name] = fmt.Sprintf("served %d of %d requests", res.Requests, cfgs[i].MaxRequests)
			case first[i] == nil:
				first[i] = res
			case !reflect.DeepEqual(first[i], res):
				short[p.Name] = fmt.Sprintf("round %d returned a different Result", r)
			}
		}
		_, stolen := iv.stop()
		out.steal = append(out.steal, stolen)
		for i := range points {
			times[i][r] *= 1 - stolen
		}
		e.tr.end(root)
	}

	// A point's Run time is its median round time times the rounds: the
	// time its full request count takes. req_per_s and run_s derive from
	// these, so a slowed round does not move them.
	var runS float64
	for i := range points {
		full := median(times[i]) * float64(rounds)
		runS += full
		out.opsMS = append(out.opsMS, full*1e3)
	}
	out.passS = []float64{runS}
	out.timedS = runS
	out.samples = map[string]any{"round_s": times}

	if e.traced() {
		if err := simLayers(e, points, sims, cfgs, first, times, allocs, rounds); err != nil {
			return nil, err
		}
	}
	if !e.probe && !e.traced() {
		checkEngines(e, points, short, out)
	}
	return out, nil
}

// simLayers reports the core and access counters of the traced rounds
// and replays a sample of every point's request stream through the
// layer functions its engine path uses.
func simLayers(e *env, points []simPoint, sims []*core.Simulator, cfgs []core.Config, res []*core.Result, times [][]float64, allocs uint64, rounds int) error {
	var requests, events, runS, probes, tuning, restarts, wasted float64
	replays := map[string]*mean{}
	var accessSample []float64
	var buildCfgs []core.Config
	for i, p := range points {
		n := float64(res[i].Requests)
		med := median(times[i])
		e.setLayer("core.ns_per_req."+p.Name, med*1e9/n)
		requests += n
		runS += med * float64(rounds)
		events += float64(res[i].Events)
		probes += res[i].Probes.Mean() * n
		tuning += res[i].Tuning.Mean() * n
		restarts += float64(res[i].Restarts)
		wasted += float64(res[i].WastedBytes)
		root := e.tr.begin("bench.replay", int64(i))
		name, m, err := replaySim(e, i, sims[i], p, cfgs[i], &accessSample)
		e.tr.end(root)
		if err != nil {
			return fmt.Errorf("%s replay: %w", p.Name, err)
		}
		if replays[name] == nil {
			replays[name] = &mean{}
		}
		replays[name].merge(m)
		buildCfgs = appendScheme(buildCfgs, cfgs[i])
	}
	e.setLayer("core.run_s", runS)
	e.setLayer("core.allocs_per_req", float64(allocs)/(requests*float64(rounds)))
	e.setLayer("core.events_per_req", events/requests)
	if faulty(points) {
		// The fault and channel counters are the faulty lanes' own; on
		// a perfect channel they are zero by construction.
		e.setLayer("access.probes_per_req", probes/requests)
		e.setLayer("access.restarts_per_req", restarts/requests)
		e.setLayer("access.wasted_frac", wasted/tuning)
	}
	for name, m := range replays {
		e.setLayer(name, m.value())
	}
	root := e.tr.begin("bench.replay", 0)
	defer e.tr.end(root)
	if len(accessSample) > 0 {
		if err := replayStats(e, accessSample); err != nil {
			return err
		}
	}
	_, _, _, _, err := replaySetup(e, buildCfgs)
	return err
}

// faulty reports whether any point leaves the perfect single channel.
func faulty(points []simPoint) bool {
	for _, p := range points {
		if p.Drop > 0 || p.Channels > 0 {
			return true
		}
	}
	return false
}

// appendScheme keeps one configuration per scheme, for the build replay.
func appendScheme(cfgs []core.Config, cfg core.Config) []core.Config {
	for _, c := range cfgs {
		if c.Scheme == cfg.Scheme {
			return cfgs
		}
	}
	return append(cfgs, cfg)
}

// replaySim replays a sample of the point's request stream through the
// layer function its engine path uses, and returns that function's
// per-layer metric name with the timing.
func replaySim(e *env, i int, s *core.Simulator, p simPoint, cfg core.Config, accessOut *[]float64) (string, mean, error) {
	bc := s.Broadcast()
	st := newStream(s.Dataset(), cfg.Availability, cfg.RequestMean, 4096, sim.StreamSeed(e.seed, i, "perfbench/replay/sim"))
	var m mean
	var err error
	name := "access.walk_ns"
	switch r, resolves := bc.(access.Resolver); {
	case p.Channels > 0:
		name = "access.walk_multi_ns"
		m, err = replayMulti(e, bc, s.Multichannel(), st)
	case p.Drop > 0:
		name = "access.walk_recover_ns"
		m, err = replayRecover(e, bc, cfg.Faults, cfg.Seed, st)
	case p.Engine == core.EngineEvents:
		m, err = replayWalk(e, bc, st, accessOut)
	case resolves:
		name = "cohort.resolve_ns_per_lane"
		m, err = replayResolve(e, r, st)
	default:
		name = "cohort.advance_ns_per_lane"
		m, err = replayAdvance(e, bc, st)
	}
	return name, m, err
}

// checkEngines is the sim-* output check: at a reduced request count,
// every point's Result must be identical on the events and the cohort
// engine, and the timed run must have served every request it was
// asked for. A point that fails either counts as a failed operation.
func checkEngines(e *env, points []simPoint, short map[string]string, out *outcome) {
	for _, p := range points {
		if msg, ok := short[p.Name]; ok {
			out.attempted++
			out.fail("%s: %s", p.Name, msg)
			continue
		}
		var results [2]*core.Result
		var err error
		for j, engine := range []string{core.EngineEvents, core.EngineCohort} {
			q := p
			q.Engine = engine
			if results[j], err = core.RunOne(q.config(e.seed, checkRequests)); err != nil {
				break
			}
		}
		if err != nil {
			out.attempted++
			out.fail("%s: %v", p.Name, err)
			continue
		}
		checkPoint(out, p.Name, results[0], results[1])
	}
}

// checkPoint records one point's check against the engines'
// bit-identity contract: the cohort engine must predict the events
// engine's Result exactly.
func checkPoint(out *outcome, name string, events, cohort *core.Result) {
	out.attempted++
	if !reflect.DeepEqual(events, cohort) {
		out.fail("%s: events and cohort engines disagree: %+v vs %+v", name, *events, *cohort)
	}
}
