package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fixtures are a table1-live traced run's CPU profile and its
// cumulative allocation profile.
var fixtures = []struct{ file, sampleType string }{
	{"testdata/cpu.pprof", "cpu"},
	{"testdata/allocs.pprof", "alloc_space"},
}

func shares(byLayer map[string]float64) map[string]float64 {
	var total float64
	for _, v := range byLayer {
		total += v
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		out[l] = v / total
	}
	return out
}

func readerShares(t *testing.T, file, sampleType string) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.valueIndex(sampleType)
	if err != nil {
		t.Fatal(err)
	}
	byLayer := map[string]float64{}
	for l, v := range attribute(p, col) {
		byLayer[l] = float64(v)
	}
	return shares(byLayer)
}

// TestSharesSumToOne checks every sample lands in exactly one layer.
func TestSharesSumToOne(t *testing.T) {
	for _, f := range fixtures {
		var sum float64
		for l, s := range readerShares(t, f.file, f.sampleType) {
			if !contains(layers, l) {
				t.Errorf("%s: attributed to unknown layer %q", f.file, l)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", f.file, sum)
		}
	}
}

var (
	traceValue = regexp.MustCompile(`^\s*([0-9.]+)([a-zA-Z]*)\s+(\S.*)$`)
	traceLabel = regexp.MustCompile(`^\s*[a-z_]+:\s`)
	unitScale  = map[string]float64{
		"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9,
		"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
	}
)

// byHandLayers lists each layer's packages as README.md defines them. It
// and byHandLayer restate the attribution rule apart from layerOf, so the
// check below tests the rule as well as the decoding.
var byHandLayers = map[string][]string{
	"apps": {"apps"}, "fft": {"fft"}, "dist": {"dist"}, "comm": {"comm"},
	"fx": {"fx", "par", "hpf"}, "group": {"group"}, "machine": {"machine", "sim", "fault"},
	"mapping": {"mapping"}, "sweep": {"sweep", "experiments"}, "skeleton": {"skeleton", "fsatomic"},
	"serve": {"serve"}, "telemetry": {"trace", "metrics", "sketch", "stats"},
}

var (
	fxparFrame = regexp.MustCompile(`^fxpar/internal/([a-z0-9]+)[./]`)
	gcRoot     = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|bgsweep|bgscavenge|GC)$`)
)

// byHandLayer is the layer of a stack (innermost frame first): that of the
// innermost fxpar/internal frame; else gc if a collector root is on the
// stack; else other.
func byHandLayer(frames []string) string {
	for _, f := range frames {
		if m := fxparFrame.FindStringSubmatch(f); m != nil {
			for layer, pkgs := range byHandLayers {
				if contains(pkgs, m[1]) {
					return layer
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		if gcRoot.MatchString(f) {
			return "gc"
		}
	}
	return "other"
}

// tracesShares attributes the text of `go tool pprof -traces` by
// byHandLayer: one block per stack, its value on the first frame's line,
// innermost frame first.
func tracesShares(t *testing.T, text string) map[string]float64 {
	t.Helper()
	byLayer := map[string]float64{}
	var value float64
	var frames []string
	flush := func() {
		if frames != nil {
			byLayer[byHandLayer(frames)] += value
		}
		frames = nil
	}
	inBody := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" || traceLabel.MatchString(line) {
			continue
		}
		if m := traceValue.FindStringSubmatch(line); m != nil && frames == nil {
			v, err := strconv.ParseFloat(m[1], 64)
			scale, ok := unitScale[m[2]]
			if err != nil || !ok {
				t.Fatalf("cannot read value in %q", line)
			}
			value = v * scale
			line = m[3]
		}
		frames = append(frames, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
	}
	flush()
	return shares(byLayer)
}

// TestAttributionMatchesPprofTraces attributes the fixtures from the text
// `go tool pprof -traces` prints, by the rule as byHandLayer restates it,
// and checks the reader and layerOf give the same shares, within the
// rounding of the text's values.
func TestAttributionMatchesPprofTraces(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, f := range fixtures {
		out, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index="+f.sampleType, f.file).Output()
		if err != nil {
			t.Fatalf("go tool pprof %s: %v", f.file, err)
		}
		want := tracesShares(t, string(out))
		got := readerShares(t, f.file, f.sampleType)
		for _, l := range layers {
			if math.Abs(got[l]-want[l]) > 0.005 {
				t.Errorf("%s: %s share %.4f, pprof -traces gives %.4f", f.file, l, got[l], want[l])
			}
		}
		t.Logf("%s: dist %.4f (pprof -traces %.4f)", f.file, got["dist"], want["dist"])
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "runtime.makeslice", "fxpar/internal/dist.(*Layout).LocalShape", "fxpar/internal/apps/ffthist.inputSet"}, "dist"},
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "fxpar/internal/skeleton.Decode", "fxpar/internal/mapping.BuildTables"}, "skeleton"},
		{[]string{"fxpar/internal/apps/stereo.errorStage"}, "apps"},
		{[]string{"fxpar/internal/sketch.(*Sketch).Add", "fxpar/internal/stats.(*Stream).Record"}, "telemetry"},
		{[]string{"fxpar/internal/sim.CostModel.Send", "fxpar/internal/comm.Bcast"}, "machine"},
		{[]string{"fxpar/internal/dist.Foo[go.shape.struct { fxpar/internal/x.T }]"}, "dist"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"main.run", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestParseProfileRejectsDamage(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Fatal("fixture has no samples")
	}
	for _, bad := range [][]byte{data[:len(data)/2], {0x0a, 0xff}, {0x1f, 0x8b, 0x00}} {
		if _, err := parseProfile(bad); err == nil {
			t.Errorf("parseProfile accepted %d damaged bytes", len(bad))
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// a run prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	render := func(ms []struct{ Name, Unit string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name+" "+m.Unit)
		}
		return strings.Join(s, ", ")
	}
	e2e := []struct{ Name, Unit string }{{"setup_s", "s"}}
	for _, m := range endToEndMetrics {
		e2e = append(e2e, struct{ Name, Unit string }{m.name, m.unit})
	}
	var pl []struct{ Name, Unit string }
	for _, m := range perLayerMetrics {
		pl = append(pl, struct{ Name, Unit string }{m.name, m.unit})
	}
	if got, want := render(spec.EndToEnd), render(e2e); got != want {
		t.Errorf("BENCHMARK.json end_to_end:\n %s\nprogram:\n %s", got, want)
	}
	if got, want := render(spec.PerLayer), render(pl); got != want {
		t.Errorf("BENCHMARK.json per_layer:\n %s\nprogram:\n %s", got, want)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
