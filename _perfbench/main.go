// Command perfbench is the repository's benchmark. It runs one workload
// (sweep, sim-clean, sim-faulty or live) against the program's public
// entry points — airql.Compile/Execute/Emit, core.New + Simulator.Run,
// aircast.NewServer + Session.ResolveKey — checks every output it times,
// and prints one JSON result line last on standard output.
//
//	perfbench --workload sim-clean --seed 3 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: it runs the workload once untraced and once with
// spans around every call into a layer, replays a sample of the
// workload's own requests through the layers' public functions, and
// writes the spans to .bench_build/trace/. See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS: every workload uses at most two busy threads,
// the size of the box the benchmark was tuned on.
const maxProcs = 2

// gcPercent pins GOGC. At the default of 100 the sweep's peak resident
// set depends on how its two concurrent points interleave with the
// collector: identical runs landed between 51 and 74 MB. At 50 the heap
// headroom halves, and so does the spread.
const gcPercent = 50

// env is what one workload run gets: its inputs, its budget and, in
// traced mode, a tracer and the per-layer metric sink.
type env struct {
	root    string  // checkout root: results/ and the build directory live here
	seed    int64   // workload seed; every input derives from it
	seconds float64 // measurement budget
	probe   bool    // small scale, no output checks (per-layer probes only)
	tr      *tracer // nil when untraced
	layers  map[string]float64
}

func (e *env) traced() bool { return e.tr != nil }

// setLayer records a per-layer metric (traced runs only).
func (e *env) setLayer(name string, v float64) {
	if e.layers != nil {
		e.layers[name] = v
	}
}

// addLayer adds to a per-layer metric (traced runs only).
func (e *env) addLayer(name string, v float64) {
	if e.layers != nil {
		e.layers[name] += v
	}
}

// outcome is what a workload run measured and checked.
type outcome struct {
	setupS    float64   // set-up wall time, as defined per workload
	passS     []float64 // wall time of each pass over the fixed operation list
	requests  int64     // requests completed in the timed phase
	timedS    float64   // total wall time of the timed phase
	opsMS     []float64 // wall time of each operation, in ms
	passTail  []float64 // each pass's latency tail in ms, where op_tail_ms is their median
	steal     []float64 // the stolen share of each timed interval; see steal.go
	attempted int64     // operations checked
	failed    int64     // operations whose output check failed
	failures  []string  // the first few failure messages
	inputs    any       // the workload's point list, for the report
	samples   any       // the raw timings behind the metrics, for the report
}

// fail counts one failed operation and keeps its message.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"sweep", runSweep},
	{"sim-clean", func(e *env) (*outcome, error) { return runSim(e, simClean) }},
	{"sim-faulty", func(e *env) (*outcome, error) { return runSim(e, simFaulty) }},
	{"live", runLive},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"req_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, sim-clean, sim-faulty or live")
	seed := fs.Int64("seed", 0, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|sim-clean|sim-faulty|live, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	debug.SetGCPercent(gcPercent)

	// The benchmark runs from the checkout root: results/ and the
	// .bench_build directory are relative to it.
	e := &env{root: ".", seed: *seed, seconds: *seconds}
	var res result
	var detail map[string]any
	var err error
	if *trace == 1 {
		res, detail, err = runTraced(w, e)
	} else {
		res, detail, err = runUntraced(w, e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	detail["host"] = hostFacts(e.root)
	detail["workload"] = w.name
	detail["seed"] = *seed
	detail["seconds"] = *seconds
	detail["trace"] = *trace
	// A run that printed its result exits 0 even when a check failed:
	// "correct" and "failed" on the result line carry that verdict.
	if err := printResult(stdout, detail, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printResult writes the detailed report line, then the result line.
func printResult(w io.Writer, detail map[string]any, res result) error {
	d, err := json.Marshal(map[string]any{"report": detail})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, r)
	return err
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, e *env) (result, map[string]any, error) {
	out, err := w.run(e)
	if err != nil {
		return result{}, nil, err
	}
	m, detail := endToEndMetrics(out)
	return resultOf(out, m), detail, nil
}

// endToEndMetrics derives the end-to-end metrics from an outcome.
func endToEndMetrics(out *outcome) (map[string]metric, map[string]any) {
	ops := summarize(out.opsMS)
	tail := ops.Tail
	if len(out.passTail) > 0 {
		tail = median(out.passTail)
	}
	vals := map[string]float64{
		"setup_s":     out.setupS,
		"run_s":       median(out.passS),
		"req_per_s":   float64(out.requests) / out.timedS,
		"op_p50_ms":   ops.P50,
		"op_tail_ms":  tail,
		"peak_rss_mb": peakRSSMB(),
	}
	m := map[string]metric{}
	for _, d := range endToEnd {
		m[d.name] = metric{vals[d.name], d.unit}
	}
	detail := map[string]any{
		"inputs":    out.inputs,
		"samples":   out.samples,
		"passes":    out.passS,
		"requests":  out.requests,
		"ops":       ops,
		"steal":     summarize(out.steal),
		"fail_frac": failFrac(out),
		"failures":  out.failures,
	}
	return m, detail
}

func resultOf(out *outcome, m map[string]metric) result {
	return result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   m,
	}
}

// failFrac is failed operations over attempted operations.
func failFrac(out *outcome) float64 {
	if out.attempted == 0 {
		return 1
	}
	return float64(out.failed) / float64(out.attempted)
}

// runTraced measures the per-layer metrics. It runs the workload once
// untraced, as the reference for the tracing overhead, then once traced.
// Metrics the workload does not exercise come from a small traced probe
// of a workload that does, so every traced run reports every per-layer
// metric; the report names the probe each one came from.
func runTraced(w workload, e *env) (result, map[string]any, error) {
	ref, err := w.run(e)
	if err != nil {
		return result{}, nil, err
	}
	te := *e
	te.tr = newTracer()
	te.layers = map[string]float64{}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced, err := w.run(&te)
	if err != nil {
		return result{}, nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	te.setLayer("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	te.setLayer("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	te.setLayer("trace.overhead_frac", median(traced.passS)/median(ref.passS)-1)
	native := len(te.layers)

	probed := map[string]string{}
	for _, v := range workloads {
		if v.name == w.name || len(missingLayers(te.layers)) == 0 {
			continue
		}
		pe := &env{root: e.root, seed: e.seed, seconds: e.seconds, probe: true, tr: newTracer(), layers: map[string]float64{}}
		if _, err := v.run(pe); err != nil {
			return result{}, nil, fmt.Errorf("probe %s: %w", v.name, err)
		}
		for _, name := range missingLayers(te.layers) {
			if val, ok := pe.layers[name]; ok {
				te.layers[name] = val
				probed[name] = v.name
			}
		}
	}
	if miss := missingLayers(te.layers); len(miss) > 0 {
		return result{}, nil, fmt.Errorf("no measurement for per-layer metrics %v", miss)
	}

	spansPath := filepath.Join(e.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := te.tr.write(spansPath); err != nil {
		return result{}, nil, err
	}
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{te.layers[d.name], d.unit}
	}
	_, detail := endToEndMetrics(ref)
	detail["native_metrics"] = native
	detail["probed_from"] = probed
	detail["spans_file"] = spansPath
	detail["self_time_s"] = te.tr.selfTimes()
	detail["traced_passes"] = traced.passS
	return resultOf(ref, m), detail, nil
}

func missingLayers(have map[string]float64) []string {
	var miss []string
	for _, d := range perLayer {
		if _, ok := have[d.name]; !ok {
			miss = append(miss, d.name)
		}
	}
	return miss
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if kb, ok := vmHWMKB(); ok {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func vmHWMKB() (int64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb, err == nil
			}
		}
	}
	return 0, false
}

// hostFacts are reported next to every number.
func hostFacts(root string) map[string]any {
	version := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.GoVersion != "" {
		version = bi.GoVersion
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"gogc":          gcPercent,
		"go_version":    version,
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"commit":        commitOf(root),
		"source_sha256": sourceHash(root),
		"time_utc":      time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceHash digests every file of the checkout (paths and contents,
// skipping .git and the build directory). It identifies the measured
// source where the checkout is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// commitOf reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
