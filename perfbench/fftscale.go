package main

import (
	"fmt"
	"math"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// fft-scale is the machine-core workload: FFT-Hist replicated as 64-processor
// data-parallel modules, two data sets each, untraced, on the two-worker
// cooperative scheduler. It is the scale tier's shape (scaleRunNil in
// scale_bench_test.go) at P=16384, the one workload where the scheduler and
// the mailboxes, not the app kernels, carry the weight.
const (
	fftProcs         = 16384
	fftModuleProcs   = 64
	fftSetsPerModule = 2
	fftN             = 64
	fftBins          = 64
	fftCoopWorkers   = 2
	// fftWarmProcs sizes the set-up run: the same shape at 1/16 the size.
	fftWarmProcs = 1024
)

// The expected outputs at P=16384; the makespan is BENCH_scale.json's.
var (
	fftWantMakespan = 0.03996373333333301
	fftWantMsgs     = int64(2128896)
)

type fftScale struct{}

func newFFTScale(int64, string) workload { return fftScale{} }

func fftConfig(procs int) (ffthist.Config, ffthist.Mapping) {
	modules := procs / fftModuleProcs
	cfg := ffthist.Config{N: fftN, Sets: fftSetsPerModule * modules, Bins: fftBins, SketchStats: true}
	return cfg, ffthist.Mapping{Modules: modules, Stages: []int{fftModuleProcs}}
}

func fftRun(tr *tracer, procs int) ffthist.Result {
	cfg, mp := fftConfig(procs)
	m := span(tr, "machine.new_s", func() *machine.Machine { return machine.New(procs, sim.Paragon()) })
	m.SetEngine(machine.Coop(fftCoopWorkers))
	return span(tr, "apps.run_s", func() ffthist.Result { return ffthist.Run(m, cfg, mp) })
}

// setup warms the process with the same workload at P=1024.
func (fftScale) setup() error {
	fftRun(nil, fftWarmProcs)
	return nil
}

func (fftScale) op(tr *tracer) opResult {
	r := fftRun(tr, fftProcs)
	var msgs int64
	for _, p := range r.Stats.Procs {
		msgs += p.MsgsSent
	}
	tr.add("machine.msgs", float64(msgs))
	res := opResult{attempted: 1}
	if math.Float64bits(r.Makespan) != math.Float64bits(fftWantMakespan) || msgs != fftWantMsgs {
		res.failed = 1
		res.mismatch = fmt.Errorf("fft-scale: makespan %.17g, %d messages; want %.17g, %d",
			r.Makespan, msgs, fftWantMakespan, fftWantMsgs)
	}
	return res
}

func (fftScale) report() map[string]float64 { return nil }
func (fftScale) close()                     {}
