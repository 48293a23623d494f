// Command perfbench is the repository's host-time benchmark: it runs one
// workload against the fxpar/internal packages, checks every output against
// a golden copy, and prints the metrics as one JSON line.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured untraced. With
// --trace 1 it reports the per-layer metrics: CPU and allocation shares by
// layer from the runtime's own profiles, spans around the calls the
// benchmark makes into each layer, and the layers' counters. See README.md
// for the workloads, the metrics and what each layer metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// An untraced run sets its workload up at least setupMinReps times and
// until setupBudget has passed before its operations, and again until
// another setupBudget has passed after them, at most setupMaxReps times in
// each phase; setup_s is the median of both phases. The budget gives the
// workloads whose set-up is a short warm-up (well under a second) enough
// repetitions for a steady median, and the second phase makes the median
// span the run, not only the host's speed in its first seconds. A set-up
// longer than the budget (table1-warm's capture) runs only before.
const (
	setupMinReps = 3
	setupMaxReps = 50
	setupBudget  = 1500 * time.Millisecond
)

// workload is one benchmark input. A run calls setup (see setupMinReps),
// then op repeatedly until the run's time is spent (or, for a fixedWork
// workload, a set number of times).
type workload interface {
	// setup prepares the state the timed operations share.
	setup() error
	// op performs one timed operation and checks its outputs; tr is nil
	// when the run is untraced.
	op(tr *tracer) opResult
	// report returns the workload's own per-layer metrics, gathered from
	// its untraced operations.
	report() map[string]float64
	// close releases what setup made.
	close()
}

// A fixedWork workload does the same number of operations in every run of
// the same length instead of running until the time is spent, because its
// attempted and failed counts must not depend on host speed.
type fixedWork interface {
	opsPerRun(budget time.Duration) int
}

// opsPerRun is the number of operations a run of w makes, or 0 if the run
// lasts until its budget is spent.
func opsPerRun(w workload, budget time.Duration) int {
	if f, ok := w.(fixedWork); ok {
		return f.opsPerRun(budget)
	}
	return 0
}

// more reports whether a run that has made done operations since start
// makes another: always a first one, then until n are made or, for n = 0,
// until budget has passed.
func more(done, n int, start time.Time, budget time.Duration) bool {
	if n > 0 {
		return done < n
	}
	return done == 0 || time.Since(start) < budget
}

// opResult counts one operation's sub-operations (a Table 1 pass is one,
// a serve-mix stream is one per request) and how many failed. mismatch
// names the first output that differed from its expected value.
type opResult struct {
	attempted, failed int
	mismatch          error
}

var workloads = map[string]func(seed int64, dir string) workload{
	"table1-live": newTable1Live,
	"table1-warm": newTable1Warm,
	"fft-scale":   newFFTScale,
	"serve-mix":   newServeMix,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table1-live, table1-warm, fft-scale or serve-mix")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	profDir := fs.String("profile-dir", "", "with --trace 1, also write the CPU and heap profiles here")
	regen := fs.Bool("regen-golden", false, "rewrite the workload's golden file from this run's outputs instead of checking them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be > 0")
	}
	regenGolden = *regen
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "perfbench", "golden")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	goldenDir = filepath.Join(root, "perfbench", "golden")
	build := buildDir(root)
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	w := mk(*seed, scratch)
	defer w.close()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceFlag == 0 {
		res, err = untracedRun(w, budget)
	} else {
		res, err = tracedRun(w, budget, *profDir)
	}
	if err != nil {
		return err
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs did not match their golden copies")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// buildDir is the directory for build and run scratch, as run.sh chooses it.
func buildDir(root string) string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	if !filepath.IsAbs(d) {
		d = filepath.Join(root, d)
	}
	return d
}

// tally accumulates operation outcomes over a run.
type tally struct {
	attempted, failed int
	correct           bool
}

func (t *tally) add(r opResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	if r.mismatch != nil {
		t.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", r.mismatch)
	}
}

// timeSetups runs setup at least minReps times and, at most setupMaxReps
// times, while the set-ups so far and one more of their median length fit
// in budget. It returns ts with each set-up's time appended.
func timeSetups(w workload, ts []float64, minReps int, budget time.Duration) ([]float64, error) {
	var spent float64
	for n := 0; n < minReps || (n < setupMaxReps && spent+median(ts) < budget.Seconds()); n++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		spent += d
		ts = append(ts, d)
	}
	return ts, nil
}

func untracedRun(w workload, budget time.Duration) (result, error) {
	setups, err := timeSetups(w, nil, setupMinReps, setupBudget)
	if err != nil {
		return result{}, err
	}
	t := tally{correct: true}
	var samples []opSample
	n := opsPerRun(w, budget)
	start := time.Now()
	for more(len(samples), n, start, budget) {
		var r opResult
		samples = append(samples, measure(func() { r = w.op(nil) }))
		t.add(r)
	}
	if setups, err = timeSetups(w, setups, 0, setupBudget); err != nil {
		return result{}, err
	}
	metrics := map[string]metric{"setup_s": {median(setups), "s"}}
	for _, m := range endToEndMetrics {
		metrics[m.name] = metric{m.value(samples), m.unit}
	}
	return result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// opMetric is one per-operation quantity and how a run aggregates it.
type opMetric struct {
	metricDef
	of   func(opSample) float64
	over func([]float64) float64
}

func (m opMetric) value(samples []opSample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = m.of(s)
	}
	return m.over(xs)
}

// endToEndMetrics are what a --trace 0 run reports beside setup_s: the
// median per operation, except the heap peak, which is the run's highest.
// They are the quantities that repeat from run to run on a shared host;
// wall and CPU time drift with the host by more than the bounds allow, so
// they are per-layer context (timeMetrics).
var endToEndMetrics = []opMetric{
	{metricDef{"allocs_m", "M"}, func(s opSample) float64 { return float64(s.mallocs) / 1e6 }, median},
	{metricDef{"alloc_gb", "GB"}, func(s opSample) float64 { return float64(s.bytes) / 1e9 }, median},
	{metricDef{"peak_heap_mb", "MB"}, func(s opSample) float64 { return float64(s.peakHeap) / 1e6 }, func(xs []float64) float64 { return quantile(xs, 1) }},
}

// timeMetrics are the medians a --trace 1 run reports from its untraced
// operations.
var timeMetrics = []opMetric{
	{metricDef{"wall_s", "s"}, func(s opSample) float64 { return s.wall }, median},
	{metricDef{"cpu_s", "s"}, func(s opSample) float64 { return s.cpu }, median},
}

// tracedRun spends the first half of the budget (or of a fixedWork
// workload's operations) on untraced operations (wall_s and cpu_s, the
// baseline of trace.overhead_x, and the workload's own latency report) and
// the second half on traced ones under the CPU profiler.
func tracedRun(w workload, budget time.Duration, profDir string) (result, error) {
	if _, err := timeSetups(w, nil, 1, 0); err != nil {
		return result{}, err
	}
	t := tally{correct: true}
	var untraced []opSample
	var traced []float64
	n := opsPerRun(w, budget)
	start := time.Now()
	for more(len(untraced), n/2, start, budget/2) {
		var r opResult
		untraced = append(untraced, measure(func() { r = w.op(nil) }))
		t.add(r)
	}

	heapBefore, err := heapProfile()
	if err != nil {
		return result{}, err
	}
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return result{}, err
	}
	tr := newTracer()
	for more(len(traced), n-n/2, start, budget) {
		var r opResult
		traced = append(traced, measure(func() { r = w.op(tr) }).wall)
		t.add(r)
	}
	pprof.StopCPUProfile()
	heapAfter, err := heapProfile()
	if err != nil {
		return result{}, err
	}
	if profDir != "" {
		if err := writeProfiles(profDir, cpuProf.Bytes(), heapBefore, heapAfter); err != nil {
			return result{}, err
		}
	}

	metrics := map[string]metric{}
	if err := layerShares(metrics, cpuProf.Bytes(), heapBefore, heapAfter, len(traced)); err != nil {
		return result{}, err
	}
	for name, v := range tr.perOp(len(traced)) {
		metrics[name] = metric{v, unitOf(name)}
	}
	for name, v := range w.report() {
		metrics[name] = metric{v, unitOf(name)}
	}
	for _, m := range timeMetrics {
		metrics[m.name] = metric{m.value(untraced), m.unit}
	}
	metrics["trace.ops"] = metric{float64(len(traced)), "count"}
	metrics["trace.overhead_x"] = metric{median(traced) / metrics["wall_s"].Value, "x"}
	metrics["failed_frac"] = metric{float64(t.failed) / float64(t.attempted), "ratio"}
	for _, m := range perLayerMetrics {
		if _, ok := metrics[m.name]; !ok {
			metrics[m.name] = metric{0, m.unit} // the layer did no such work
		}
	}
	return result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// heapProfile returns the cumulative allocation profile as of a collection
// that has just finished, so it covers every allocation made so far.
func heapProfile() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func writeProfiles(dir string, cpu, heapBefore, heapAfter []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range map[string][]byte{"cpu.pprof": cpu, "allocs-before.pprof": heapBefore, "allocs-after.pprof": heapAfter} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// layerShares adds <layer>.cpu_share (of the traced operations' CPU
// samples) and <layer>.alloc_mb (bytes allocated per traced operation).
func layerShares(out map[string]metric, cpu, heapBefore, heapAfter []byte, ops int) error {
	p, err := parseProfile(cpu)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	col, err := p.valueIndex("cpu")
	if err != nil {
		return err
	}
	byLayer := attribute(p, col)
	var total int64
	for _, v := range byLayer {
		total += v
	}
	if total == 0 {
		return errors.New("cpu profile has no samples")
	}
	allocs := func(data []byte) (map[string]int64, error) {
		p, err := parseProfile(data)
		if err != nil {
			return nil, fmt.Errorf("heap profile: %w", err)
		}
		col, err := p.valueIndex("alloc_space")
		if err != nil {
			return nil, err
		}
		return attribute(p, col), nil
	}
	before, err := allocs(heapBefore)
	if err != nil {
		return err
	}
	after, err := allocs(heapAfter)
	if err != nil {
		return err
	}
	for _, l := range layers {
		out[l+".cpu_share"] = metric{float64(byLayer[l]) / float64(total), "ratio"}
		out[l+".alloc_mb"] = metric{float64(after[l]-before[l]) / 1e6 / float64(ops), "MB"}
	}
	return nil
}

// median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is reordered); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
