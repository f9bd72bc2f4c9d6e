package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/scenarios"
)

// The harness self-tests: a corrupted reference or prediction must make
// the run report fail_frac > 0 and not pass, and an intact one must not.

// assertFails checks the reported outcome of a run that met a corruption.
func assertFails(t *testing.T, out *outcome) {
	t.Helper()
	if failFrac(out) <= 0 {
		t.Fatalf("fail_frac = %v after a corruption, want > 0", failFrac(out))
	}
	if resultOf(out, nil).Correct {
		t.Fatalf("run passed after a corruption: %+v", out.failures)
	}
}

func assertPasses(t *testing.T, out *outcome) {
	t.Helper()
	if out.attempted == 0 || out.failed != 0 || !resultOf(out, nil).Correct {
		t.Fatalf("intact run did not pass: attempted %d, failures %v", out.attempted, out.failures)
	}
}

// writeReference copies the committed ablate-r.csv into a scratch root,
// optionally scaling one analytic cell by factor.
func writeReference(t *testing.T, factor float64) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "results", "ablate-r.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if factor != 1 {
		rows, err := csv.NewReader(bytes.NewReader(want)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(rows[1][2], 64) // "access (A)" at r=0
		if err != nil {
			t.Fatal(err)
		}
		rows[1][2] = strconv.FormatFloat(v*factor, 'g', -1, 64)
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.WriteAll(rows); err != nil {
			t.Fatal(err)
		}
		want = buf.Bytes()
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "results", "ablate-r.csv"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestSweepCheckCatchesCorruptReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-profile ablate-r sweep")
	}
	saved := sweepScripts
	sweepScripts = []string{"ablate-r"}
	defer func() { sweepScripts = saved }()

	for _, tc := range []struct {
		name   string
		seed   int64 // 0 is the committed seed: byte comparison
		factor float64
		fails  bool
	}{
		{"committed seed, intact", 0, 1, false},
		{"committed seed, corrupted", 0, 1.001, true},
		{"other seed, intact", 7, 1, false},
		{"other seed, corrupted analytic cell", 7, 1.001, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runSweep(&env{root: writeReference(t, tc.factor), seed: tc.seed, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.fails {
				assertFails(t, out)
			} else {
				assertPasses(t, out)
			}
		})
	}
}

// TestSweepCheckCatchesCorruptFig5 holds the recomputed Figure 5 point,
// the only exact check at seeds without committed results, to its
// contract: intact tables pass, and a changed cell or a renamed column
// fails the run.
func TestSweepCheckCatchesCorruptFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-profile fig5 sweep")
	}
	src, err := scenarios.Source("fig5.airql")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := airql.Compile("fig5.airql", src)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := airql.Execute(prog, airql.Options{Seed: committedSeed})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	outRoot := filepath.Join(root, "out")
	if err := airql.Emit(prog, tables, outRoot, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5a.csv", "fig5b.csv"} {
		b, err := os.ReadFile(filepath.Join("..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "results", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(seed int64, tables []*airql.Table) *outcome {
		out := &outcome{}
		checkSweep(&env{root: root, seed: seed}, []sweepRun{{prog, tables}}, outRoot, committedSeed, out)
		return out
	}

	// One seed whose point is flat (no fig5b cell) and one whose is not.
	flatSeed, otherSeed := int64(-1), int64(-1)
	for seed := int64(0); seed < 100 && (flatSeed < 0 || otherSeed < 0); seed++ {
		if _, scheme := fig5Pick(seed); scheme == "flat" && flatSeed < 0 {
			flatSeed = seed
		} else if scheme != "flat" && otherSeed < 0 {
			otherSeed = seed
		}
	}
	if flatSeed < 0 || otherSeed < 0 {
		t.Fatalf("no seed below 100 picks both a flat and another point")
	}
	for _, seed := range []int64{flatSeed, otherSeed} {
		assertPasses(t, check(seed, tables))
	}

	pct, scheme := fig5Pick(otherSeed)
	for ti := range tables {
		changed := cloneTables(tables)
		ci := slices.Index(changed[ti].Columns, scheme)
		for ri := range changed[ti].Rows {
			if r := changed[ti].Rows[ri]; r.X == pct {
				r.Cells[ci] = math.Nextafter(r.Cells[ci], math.Inf(1))
			}
		}
		assertFails(t, check(otherSeed, changed))

		renamed := cloneTables(tables)
		renamed[ti].Columns[ci] += " (renamed)"
		assertFails(t, check(otherSeed, renamed))
	}
}

// cloneTables copies tables deeply enough to change a label or a cell.
func cloneTables(tables []*airql.Table) []*airql.Table {
	out := make([]*airql.Table, len(tables))
	for i, t := range tables {
		c := *t
		c.Columns = slices.Clone(t.Columns)
		c.Rows = make([]airql.Row, len(t.Rows))
		for j, r := range t.Rows {
			c.Rows[j] = airql.Row{X: r.X, Cells: slices.Clone(r.Cells)}
		}
		out[i] = &c
	}
	return out
}

func TestCompareCellTolerance(t *testing.T) {
	if err := compareCell("1.02e+06", "1e+06", true); err != nil {
		t.Errorf("2%% off a simulated statistic: %v", err)
	}
	if err := compareCell("1.1e+06", "1e+06", true); err == nil {
		t.Errorf("10%% off a simulated statistic passed")
	}
	if err := compareCell("1.0000001e+06", "1e+06", false); err == nil {
		t.Errorf("a changed seed-independent cell passed")
	}
}

func TestSimCheckCatchesCorruptPrediction(t *testing.T) {
	cfg := core.DefaultConfig("distributed", 500)
	cfg.MinRequests, cfg.MaxRequests, cfg.Shards = 1000, 1000, 2
	events, err := core.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = core.EngineCohort
	cohort, err := core.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	checkPoint(out, "dist", events, cohort)
	assertPasses(t, out)

	corrupt := *cohort
	corrupt.Tuning.Add(1)
	checkPoint(out, "dist", events, &corrupt)
	assertFails(t, out)
}

func TestLiveCheckCatchesCorruptResult(t *testing.T) {
	e := &env{seed: 1}
	ls, _, err := startLive(e, "distributed", 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.close()
	var kept []resolveRecord
	for _, key := range ls.keys {
		res, err := ls.sess.ResolveKey(key)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, resolveRecord{0, key, res})
	}
	out := &outcome{}
	checkLive([]*liveScheme{ls}, kept, out)
	assertPasses(t, out)

	pred, err := predict(ls, kept[0].key, kept[0].res.FirstBucket)
	if err != nil {
		t.Fatal(err)
	}
	pred.Tuning++
	if checkResolve(ls, kept[0], pred) == nil {
		t.Errorf("a corrupted prediction passed the lossless contract")
	}

	kept[3].res.Access++
	out = &outcome{}
	checkLive([]*liveScheme{ls}, kept, out)
	assertFails(t, out)
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	for _, m := range perLayer {
		layers = append(layers, entry{m.name, m.unit})
	}
	if !slices.Equal(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end = %v, program reports %v", spec.EndToEnd, e2e)
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("per_layer = %v, program reports %v", spec.PerLayer, layers)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workloads), len(workloads))
	}
}
