package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/scenarios"
)

// sweepScripts is the sweep workload: the full-profile regeneration of
// Figure 5 and the three ablations, about 46 sweep points in all.
var sweepScripts = []string{"fig5", "ablate-r", "ablate-m", "ablate-hash"}

const (
	// committedSeed is the run seed results/ was generated with (the
	// simulator's default). --seed 0 selects it too.
	committedSeed = 42
	// nearTolerance bounds how far a simulated statistic may move from
	// the committed value when the sweep runs at another seed. The
	// scripts stop at 1 % accuracy with 99 % confidence, so two seeds
	// differ by about 1 %; a changed statistic moves further.
	nearTolerance = 0.04
	// compileReps is how often set-up compiles the script set; setup_s
	// is the median. One compile takes about 70 µs, so 200 of them fit in
	// one slice of host load and their median moved from 48 to 95 µs
	// between processes; 5,000 span about 0.4 s and repeat within 5 %.
	compileReps = 5000
	// sweepRecords is the workload size the Figure 5 script sets.
	sweepRecords = 10000
)

// seedStats are the airql column functions whose value is a sample
// statistic, and so moves with the run seed. Every other column
// (analytic models, scheme parameters, cycle length) must not.
var seedStats = map[string]bool{
	"mean": true, "p95": true, "p99": true, "requests": true,
	"restarts": true, "wasted": true, "switches": true, "unrecovered": true,
}

// requestsField reads the request count off an airql progress line.
var requestsField = regexp.MustCompile(`requests=(\d+)`)

// sweepRun is one script of a pass.
type sweepRun struct {
	prog   *airql.Program
	tables []*airql.Table
}

// runSweep compiles the script set (set-up), then runs Execute + Emit
// for every script (timed), each script's time net of steal (steal.go).
// An operation is an emitted CSV; each is
// checked against results/ after the pass. Probes run the fast profile
// of one script and check nothing.
func runSweep(e *env) (*outcome, error) {
	names := sweepScripts
	if e.probe {
		names = []string{"ablate-r"}
	}
	srcs := make([]string, len(names))
	for i, n := range names {
		src, err := scenarios.Source(n + ".airql")
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}

	out := &outcome{inputs: map[string]any{"scripts": names, "fast": e.probe}}
	runs := make([]sweepRun, len(names))
	var setTimes []float64
	root := e.tr.begin("bench.setup", 0)
	for r := 0; r < compileReps; r++ {
		t0 := time.Now()
		for i := range names {
			id := e.tr.begin("airql.Compile", int64(i))
			prog, err := airql.Compile(names[i]+".airql", srcs[i])
			e.tr.end(id)
			if err != nil {
				return nil, err
			}
			runs[i].prog = prog
		}
		setTimes = append(setTimes, time.Since(t0).Seconds())
	}
	e.tr.end(root)
	out.setupS = median(setTimes)

	runSeed := e.seed
	if runSeed == 0 {
		runSeed = committedSeed
	}
	outRoot := filepath.Join(e.root, ".bench_build", "sweep", fmt.Sprintf("seed%d", e.seed))
	if err := os.RemoveAll(outRoot); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var points int64
	opt := airql.Options{Fast: e.probe, Seed: runSeed, Progress: func(format string, args ...any) {
		m := requestsField.FindStringSubmatch(fmt.Sprintf(format, args...))
		mu.Lock()
		defer mu.Unlock()
		points++
		if m != nil {
			n, _ := strconv.ParseInt(m[1], 10, 64)
			out.requests += n
		}
	}}

	var executeS, emitS float64
	for i := range runs {
		root := e.tr.begin("bench.script", int64(i))
		iv := startInterval()
		id := e.tr.begin("airql.Execute", int64(i))
		t0 := time.Now()
		tables, err := airql.Execute(runs[i].prog, opt)
		dx := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		id = e.tr.begin("airql.Emit", int64(i))
		t1 := time.Now()
		err = airql.Emit(runs[i].prog, tables, outRoot, io.Discard)
		dm := time.Since(t1)
		e.tr.end(id)
		_, stolen := iv.stop()
		e.tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		runs[i].tables = tables
		out.steal = append(out.steal, stolen)
		executeS += dx.Seconds() * (1 - stolen)
		emitS += dm.Seconds() * (1 - stolen)
		out.opsMS = append(out.opsMS, (dx+dm).Seconds()*(1-stolen)*1e3)
	}
	out.timedS = executeS + emitS
	out.passS = []float64{out.timedS}
	out.inputs.(map[string]any)["run_seed"] = runSeed
	out.inputs.(map[string]any)["points"] = points

	if e.traced() {
		e.setLayer("airql.compile_s", out.setupS)
		e.setLayer("airql.execute_s", executeS)
		e.setLayer("airql.emit_s", emitS)
		e.setLayer("airql.points", float64(points))
		root := e.tr.begin("bench.replay", 0)
		err := replaySweepSetup(e, opt, points, executeS)
		e.tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	if !e.probe && !e.traced() {
		checkSweep(e, runs, outRoot, runSeed, out)
	}
	return out, nil
}

// replaySweepSetup repeats, from outside the executor, the set-up every
// sweep point pays today: generating the 10,000-record dataset and
// building a Figure 5 broadcast. airql.setup_share is the share of
// Execute that this set-up would take if every point paid it once.
// It also replays a request sample through access.Walk, the walker the
// sweep's events engine runs.
func replaySweepSetup(e *env, opt airql.Options, points int64, executeS float64) error {
	records := sweepRecords
	if e.probe {
		records = 2500
	}
	var cfgs []core.Config
	for _, scheme := range []string{"flat", "signature", "(1,m)", "distributed", "hashing"} {
		cfgs = append(cfgs, opt.BaseConfig(scheme, records))
	}
	ds, bcs, genS, buildS, err := replaySetup(e, cfgs)
	if err != nil {
		return err
	}
	e.setLayer("airql.setup_share", float64(points)*(genS+buildS)/executeS)
	var walk mean
	for i, bc := range bcs {
		st := newStream(ds, 1, cfgs[i].RequestMean, 4096, sim.StreamSeed(e.seed, i, "perfbench/replay/sweep"))
		m, err := replayWalk(e, bc, st, nil)
		if err != nil {
			return err
		}
		walk.merge(m)
	}
	e.setLayer("access.walk_ns", walk.value())
	return nil
}

// checkSweep is the sweep's output check. At the committed seed every
// emitted CSV must be byte-identical to results/. At another seed there
// is no committed reference, so each CSV must keep results/' shape and
// every seed-independent cell byte for byte, and every simulated
// statistic must lie within nearTolerance of the committed value. At
// every seed one Figure 5 point, drawn from the seed, is recomputed with
// core.New + Run on the cohort engine and must equal its table cells
// exactly.
func checkSweep(e *env, runs []sweepRun, outRoot string, runSeed int64, out *outcome) {
	bad := map[string]string{}
	for _, r := range runs {
		if r.prog.File != "fig5.airql" {
			continue
		}
		if path, msg := recomputeFig5(e.seed, runSeed, r); msg != "" {
			bad[path] = msg
		}
	}
	for _, r := range runs {
		for _, decl := range r.prog.Tables {
			for _, sink := range decl.Sinks {
				if sink.Name != "csv" {
					continue
				}
				out.attempted++
				if msg, ok := bad[sink.Arg]; ok {
					out.fail("%s: %s", sink.Arg, msg)
					continue
				}
				if err := checkCSV(e.root, outRoot, sink.Arg, decl, runSeed == committedSeed); err != nil {
					out.fail("%s: %v", sink.Arg, err)
				}
			}
		}
	}
}

// checkCSV compares one emitted CSV with the committed one.
func checkCSV(root, outRoot, rel string, decl *airql.TableDecl, exact bool) error {
	got, err := os.ReadFile(filepath.Join(outRoot, filepath.FromSlash(rel)))
	if err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		return fmt.Errorf("no committed reference: %w", err)
	}
	if exact {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("differs from the committed CSV")
		}
		return nil
	}
	g, err := csv.NewReader(bytes.NewReader(got)).ReadAll()
	if err != nil {
		return err
	}
	w, err := csv.NewReader(bytes.NewReader(want)).ReadAll()
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, committed %d", len(g), len(w))
	}
	for ri := range w {
		if len(g[ri]) != len(w[ri]) || len(w[ri]) != len(decl.Cols)+1 {
			return fmt.Errorf("row %d: %d cells, committed %d", ri, len(g[ri]), len(w[ri]))
		}
		for ci := range w[ri] {
			near := ri > 0 && ci > 0 && seedDependent(decl.Cols[ci-1].Expr)
			if err := compareCell(g[ri][ci], w[ri][ci], near); err != nil {
				return fmt.Errorf("row %d column %q: %v", ri, w[0][ci], err)
			}
		}
	}
	return nil
}

// compareCell requires equality, or for a simulated statistic a value
// within nearTolerance of the committed one.
func compareCell(got, want string, near bool) error {
	if got == want {
		return nil
	}
	if !near {
		return fmt.Errorf("%s, committed %s", got, want)
	}
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil || w == 0 || math.Abs(g-w) > nearTolerance*math.Abs(w) {
		return fmt.Errorf("%s is not within %.0f%% of the committed %s", got, nearTolerance*100, want)
	}
	return nil
}

// seedDependent reports whether a column expression reads a sample
// statistic.
func seedDependent(x *airql.Expr) bool {
	if x == nil {
		return false
	}
	if x.Kind == airql.ExprCall && seedStats[x.Name] {
		return true
	}
	for _, a := range x.Args {
		if seedDependent(a) {
			return true
		}
	}
	return seedDependent(x.X) || seedDependent(x.Y)
}

// fig5Pick draws, from the workload seed, the Figure 5 point the check
// recomputes: an availability percentage and a scheme column label.
// Signature is left out: its stepped walk would cost seconds here.
func fig5Pick(seed int64) (float64, string) {
	rng := sim.NewRNG(sim.StreamSeed(seed, 0, "perfbench/sweep-check"))
	pcts := []float64{0, 20, 40, 60, 80, 100}
	schemes := []string{"flat", "(1,m)", "distributed", "hashing"}
	return pcts[rng.Intn(len(pcts))], schemes[rng.Intn(len(schemes))]
}

// recomputeFig5 reruns one Figure 5 point outside the executor and
// compares it with the fig5a (access) and fig5b (tuning) cells. It
// returns the CSV that failed and why, or "" when the point matches.
// A missing cell fails the check, except flat's in fig5b: the paper
// plots no tuning time for plain broadcast.
func recomputeFig5(seed, runSeed int64, fig5 sweepRun) (string, string) {
	pct, scheme := fig5Pick(seed)
	cfg := airql.Options{Seed: runSeed}.BaseConfig(scheme, sweepRecords)
	cfg.Availability = pct / 100
	cfg.Engine = core.EngineCohort
	res, err := core.RunOne(cfg)
	if err != nil {
		return "results/fig5a.csv", err.Error()
	}
	if len(fig5.tables) != 2 || len(fig5.prog.Tables) != 2 {
		return "results/fig5a.csv", fmt.Sprintf("%d tables, want fig5a and fig5b", len(fig5.tables))
	}
	for i, want := range []float64{res.Access.Mean(), res.Tuning.Mean()} {
		t := fig5.tables[i]
		path := fig5.prog.Tables[i].Sinks[0].Arg
		got, ok := cell(t, pct, scheme)
		switch {
		case !ok && t.ID == "fig5b" && scheme == "flat":
			continue
		case !ok:
			return path, fmt.Sprintf("no %q cell at %.0f%% in %s", scheme, pct, t.ID)
		case got != want:
			return path, fmt.Sprintf("%s at %.0f%%: table %v, recomputed %v", scheme, pct, got, want)
		}
	}
	return "", ""
}

// cell looks up a table value by x and column label.
func cell(t *airql.Table, x float64, col string) (float64, bool) {
	for ci, c := range t.Columns {
		if c != col {
			continue
		}
		for _, r := range t.Rows {
			if r.X == x {
				return r.Cells[ci], true
			}
		}
	}
	return 0, false
}
