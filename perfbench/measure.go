package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// opSample is the host cost of one operation.
type opSample struct {
	wall, cpu      float64 // seconds
	mallocs, bytes uint64  // heap allocations and bytes allocated
	// peakHeap is the highest live heap a collection measured during the
	// operation. The total heap peaks at up to twice that, wherever the
	// collector happens to trigger; the live heap is what the program holds.
	peakHeap uint64
}

// heapPollEvery is the live-heap sampling period: shorter than the time
// between collections, long enough that the sampler costs nothing
// measurable.
const heapPollEvery = time.Millisecond

// measure runs fn once and returns its cost. CPU time is the whole
// process's, which includes the collector and, for serve-mix, the server.
// A collection before fn starts, outside the timed part, makes the first
// live-heap reading the heap fn inherits rather than whatever the last
// collection (during set-up or the previous operation) happened to find.
func measure(fn func()) opSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	peak := make(chan uint64)
	go pollHeap(stop, peak)
	cpu0 := cpuSeconds()
	start := time.Now()
	fn()
	wall := time.Since(start).Seconds()
	cpu1 := cpuSeconds()
	close(stop)
	p := <-peak
	runtime.ReadMemStats(&m1)
	return opSample{
		wall: wall, cpu: cpu1 - cpu0,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		peakHeap: p,
	}
}

// pollHeap samples the live heap the last collection measured until stop
// closes, then sends the highest value seen.
func pollHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var max uint64
	t := time.NewTicker(heapPollEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// tracer records spans around the benchmark's own calls into each layer,
// and the layers' counters, summed over a run's traced operations. A nil
// tracer records nothing.
type tracer struct {
	mu   sync.Mutex
	sums map[string]float64
}

func newTracer() *tracer { return &tracer{sums: map[string]float64{}} }

// add adds v to the named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// span runs fn, adding its wall time to the named span when tr is non-nil.
func span[T any](tr *tracer, name string, fn func() T) T {
	if tr == nil {
		return fn()
	}
	start := time.Now()
	v := fn()
	tr.add(name, time.Since(start).Seconds())
	return v
}

// perOp returns every span and counter per traced operation, plus the
// ratios derived from them.
func (t *tracer) perOp(ops int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range t.sums {
		out[k] = v / float64(ops)
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			out[name] = num / den
		}
	}
	ratio("machine.msgs_per_s", t.sums["machine.msgs"], t.sums["apps.run_s"])
	hits := t.sums["skeleton.hits_disk"] + t.sums["skeleton.hits_mem"]
	ratio("skeleton.hit_ratio", hits, hits+t.sums["skeleton.captured"])
	ratio("serve.dedup_ratio", t.sums["serve.dedup_hits"], t.sums["serve.dedup_hits"]+t.sums["serve.campaigns"])
	return out
}

type metricDef struct{ name, unit string }

// perLayerMetrics is every metric a --trace 1 run reports; BENCHMARK.json
// lists the same names.
var perLayerMetrics = func() []metricDef {
	var ms []metricDef
	for _, l := range layers {
		ms = append(ms, metricDef{l + ".cpu_share", "ratio"}, metricDef{l + ".alloc_mb", "MB"})
	}
	return append(ms,
		metricDef{"wall_s", "s"},
		metricDef{"cpu_s", "s"},
		metricDef{"mapping.build_tables_s", "s"},
		metricDef{"mapping.optimize_s", "s"},
		metricDef{"apps.run_s", "s"},
		metricDef{"machine.new_s", "s"},
		metricDef{"machine.msgs", "count"},
		metricDef{"machine.msgs_per_s", "1/s"},
		metricDef{"skeleton.hits_disk", "count"},
		metricDef{"skeleton.hits_mem", "count"},
		metricDef{"skeleton.captured", "count"},
		metricDef{"skeleton.hit_ratio", "ratio"},
		metricDef{"serve.campaigns", "count"},
		metricDef{"serve.dedup_hits", "count"},
		metricDef{"serve.dedup_ratio", "ratio"},
		metricDef{"serve.joins", "count"},
		metricDef{"serve.cold_share", "ratio"},
		metricDef{"serve.memo_share", "ratio"},
		metricDef{"serve.hit_share", "ratio"},
		metricDef{"serve.join_share", "ratio"},
		metricDef{"cold_p50_ms", "ms"},
		metricDef{"cold_p90_ms", "ms"},
		metricDef{"hit_p50_ms", "ms"},
		metricDef{"hit_p99_ms", "ms"},
		metricDef{"cold_n", "count"},
		metricDef{"hit_n", "count"},
		metricDef{"req_per_s", "1/s"},
		metricDef{"trace.ops", "count"},
		metricDef{"trace.overhead_x", "x"},
		metricDef{"failed_frac", "ratio"},
	)
}()

func unitOf(name string) string {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unlisted metric " + name)
}
