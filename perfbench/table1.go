package main

import (
	"fmt"
	"os"
	"path/filepath"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/experiments"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/stats"
)

// table1Procs is the simulated machine size of both Table 1 workloads. The
// paper's 64 nodes take 26 s of host time per pass on a 2-core host, too long
// for the run budget; 16 nodes keep the paper's data sizes and mapping
// structure (every row still picks a replicated task+data mapping) at about
// 8 s a pass.
const table1Procs = 16

// table1 runs paper Table 1: each row measures its cost tables, runs the
// data-parallel mapping, optimizes the task+data mapping for the paper's
// relative throughput goal and runs it. table1-live starts every pass with
// a cold table memo and no store; table1-warm answers the cost tables from
// an on-disk skeleton store that setup fills with one cold traced pass.
type table1 struct {
	warm     bool
	dir      string
	store    string // warm: the store directory setup filled
	stored   int    // warm: how many skeleton files the capture wrote
	nsetup   int
	golden   *golden
	setupErr error // the first mismatch seen during setup, reported by the next op
}

func newTable1Live(_ int64, dir string) workload { return &table1{dir: dir} }
func newTable1Warm(_ int64, dir string) workload { return &table1{dir: dir, warm: true} }

// config is the Table 1 campaign both workloads run: the campaign pool at
// one worker, since two workers make the pass time swing with how the four
// rows happen to pair up on the host's cores.
func (t *table1) config() experiments.Table1Config {
	cfg := experiments.DefaultTable1()
	cfg.Procs = table1Procs
	cfg.Workers = 1
	return cfg
}

// rowResult is the simulated part of a Table 1 row: every field is a pure
// function of the inputs, so it must match the golden copy bit for bit.
type rowResult struct {
	Name, Size                  string
	DPThroughput, DPLatency     float64
	Goal                        float64
	Best                        string
	TaskThroughput, TaskLatency float64
}

func toResults(rows []experiments.Table1Row) []rowResult {
	out := make([]rowResult, len(rows))
	for i, r := range rows {
		out[i] = rowResult{r.Name, r.Size, r.DPThroughput, r.DPLatency, r.Goal, r.Best, r.TaskThroughput, r.TaskLatency}
	}
	return out
}

// setup: table1-live warms the process with one quick-size pass (the same
// code at reduced data sizes); table1-warm captures a fresh skeleton store
// with a cold pass, and checks every capture writes the same store.
func (t *table1) setup() error {
	if t.golden == nil {
		g, err := loadGolden("table1")
		if err != nil {
			return err
		}
		t.golden = g
	}
	mapping.ResetTableMemo()
	defer mapping.ResetTableMemo()
	if !t.warm {
		cfg := experiments.QuickTable1()
		cfg.Workers = 1
		experiments.Table1(cfg)
		return nil
	}
	t.nsetup++
	dir := filepath.Join(t.dir, fmt.Sprintf("store-%d", t.nsetup))
	st := skeleton.NewStore(dir)
	cfg := t.config()
	cfg.Replay = &mapping.ReplayOptions{Store: st}
	rows := toResults(experiments.Table1(cfg))
	if err := t.golden.check(rows); err != nil && t.setupErr == nil {
		t.setupErr = fmt.Errorf("capture pass: %w", err)
	}
	stored, err := countFiles(dir)
	if (err != nil || stored == 0) && t.setupErr == nil {
		t.setupErr = fmt.Errorf("capture pass stored no skeletons (%v)", err)
	}
	if t.store != "" {
		if err := sameTree(t.store, dir); err != nil && t.setupErr == nil {
			t.setupErr = fmt.Errorf("captures differ: %w", err)
		}
		if err := os.RemoveAll(t.store); err != nil {
			return err
		}
	}
	t.store, t.stored = dir, stored
	return nil
}

func (t *table1) op(tr *tracer) opResult {
	mapping.ResetTableMemo()
	cfg := t.config()
	var st *skeleton.Store
	if t.warm {
		st = skeleton.NewStore(t.store)
		cfg.Replay = &mapping.ReplayOptions{Store: st}
	}
	var rows []rowResult
	if tr == nil {
		rows = toResults(experiments.Table1(cfg))
	} else {
		rows = tracedTable1(cfg, tr)
	}
	res := opResult{attempted: 1}
	err := t.golden.check(rows)
	if err == nil && t.setupErr != nil {
		err, t.setupErr = t.setupErr, nil
	}
	if st != nil {
		s := st.Stats()
		tr.add("skeleton.hits_disk", float64(s.Disk))
		tr.add("skeleton.hits_mem", float64(s.Memory))
		tr.add("skeleton.captured", float64(s.Captured))
		if err == nil {
			err = checkWarmPass(t.store, t.stored, s)
		}
	}
	if err != nil {
		res.failed, res.mismatch = 1, err
	}
	return res
}

func (t *table1) report() map[string]float64 { return nil }
func (t *table1) close()                     { mapping.ResetTableMemo() }

// tracedTable1 computes the same rows as experiments.Table1 through the
// apps' public MeasuredModel and Run and mapping.Optimize, with a span
// around each call. The goal ratios are the paper's, as Table1 uses them.
func tracedTable1(cfg experiments.Table1Config, tr *tracer) []rowResult {
	cost := sim.Paragon()
	opt := mapping.BuildOptions{Workers: cfg.Workers, Replay: cfg.Replay}
	p := cfg.Procs
	newMachine := func() *machine.Machine {
		return span(tr, "machine.new_s", func() *machine.Machine { return machine.New(p, cost) })
	}
	ffthistRun := func(c ffthist.Config, mp ffthist.Mapping) stats.Result {
		m := newMachine()
		r := span(tr, "apps.run_s", func() ffthist.Result { return ffthist.Run(m, c, mp) })
		var msgs int64
		for _, ps := range r.Stats.Procs {
			msgs += ps.MsgsSent
		}
		tr.add("machine.msgs", float64(msgs))
		return r.Stream
	}

	var rows []rowResult
	// Table1 divides the FFT-Hist goals at run time (float64 division) and
	// the Radar and Stereo goals as constant expressions (exact, then
	// rounded); the last bit of the goal differs between the two.
	for _, f := range []struct {
		n              int
		paperGoal, pDP float64
	}{{256, 8, 3.90}, {512, 2, 1.99}} {
		c := ffthist.Config{N: f.n, Sets: cfg.Sets, Bins: 64}
		rows = append(rows, tracedRow(tr, "FFT-Hist", fmt.Sprintf("%dx%d", f.n, f.n), f.paperGoal/f.pDP, p,
			func() (mapping.Model, error) {
				m, _, err := ffthist.MeasuredModel(cost, c, p, opt)
				return m, err
			},
			func() stats.Result { return ffthistRun(c, ffthist.DataParallel(min(p, f.n))) },
			func(ch mapping.Choice) stats.Result { return ffthistRun(c, ffthist.ChoiceToMapping(ch)) }))
	}

	rc := radar.DefaultConfig()
	rc.Sets = cfg.Sets
	radarRun := func(mp radar.Mapping) stats.Result {
		m := newMachine()
		return span(tr, "apps.run_s", func() radar.Result { return radar.Run(m, rc, mp) }).Stream
	}
	rows = append(rows, tracedRow(tr, "Radar", fmt.Sprintf("%dx%d", rc.Gates, rc.Rows), 50.0/23.4, p,
		func() (mapping.Model, error) {
			m, _, err := radar.MeasuredModel(cost, rc, p, opt)
			return m, err
		},
		func() stats.Result { return radarRun(radar.DataParallel(min(p, rc.Rows))) },
		func(ch mapping.Choice) stats.Result { return radarRun(radar.ChoiceToMapping(ch)) }))

	sc := stereo.DefaultConfig()
	sc.Sets = cfg.Sets
	stereoRun := func(mp stereo.Mapping) stats.Result {
		m := newMachine()
		return span(tr, "apps.run_s", func() stereo.Result { return stereo.Run(m, sc, mp) }).Stream
	}
	rows = append(rows, tracedRow(tr, "Stereo", fmt.Sprintf("%dx%d", sc.W, sc.H), 10.0/3.64, p,
		func() (mapping.Model, error) {
			m, _, err := stereo.MeasuredModel(cost, sc, p, opt)
			return m, err
		},
		func() stats.Result { return stereoRun(stereo.DataParallel(min(p, sc.H))) },
		func(ch mapping.Choice) stats.Result { return stereoRun(stereo.ChoiceToMapping(ch)) }))
	return rows
}

// tracedRow is one row of tracedTable1, in the order experiments.Table1
// computes it.
func tracedRow(tr *tracer, name, size string, goalRatio float64, p int,
	model func() (mapping.Model, error), runDP func() stats.Result, runChoice func(mapping.Choice) stats.Result) rowResult {
	row := rowResult{Name: name, Size: size}
	type built struct {
		m   mapping.Model
		err error
	}
	b := span(tr, "mapping.build_tables_s", func() built { m, err := model(); return built{m, err} })
	if b.err != nil {
		row.Best = "model: " + b.err.Error()
		return row
	}
	dp := runDP()
	row.DPThroughput, row.DPLatency = dp.Throughput, dp.Latency
	row.Goal = goalRatio / b.m.DPT[p]
	type chosen struct {
		c   mapping.Choice
		err error
	}
	ch := span(tr, "mapping.optimize_s", func() chosen { c, err := mapping.Optimize(b.m, row.Goal); return chosen{c, err} })
	if ch.err != nil {
		row.Best = "infeasible: " + ch.err.Error()
		return row
	}
	row.Best = ch.c.String()
	task := runChoice(ch.c)
	row.TaskThroughput, row.TaskLatency = task.Throughput, task.Latency
	return row
}

// checkWarmPass checks that a pass over a store the capture pass filled
// with stored skeleton files was answered from disk: every stored skeleton
// read once from disk, and no file written. The cost-table path captures a
// missing skeleton live and writes it with Store.Put, which Store.Stats does
// not count, so a pass that replayed less than it should shows only in the
// disk hits and the directory.
func checkWarmPass(dir string, stored int, s skeleton.StoreStats) error {
	n, err := countFiles(dir)
	switch {
	case err != nil:
		return fmt.Errorf("warm pass: %w", err)
	case n != stored:
		return fmt.Errorf("warm pass wrote to the store: %d files, the capture stored %d", n, stored)
	case s.Disk != int64(stored) || s.Captured != 0:
		return fmt.Errorf("warm pass was not answered from disk: %+v, the capture stored %d skeletons", s, stored)
	}
	return nil
}

// countFiles counts the regular files under dir.
func countFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	return n, err
}

// sameTree reports whether two directories hold the same files with the
// same bytes.
func sameTree(a, b string) error {
	read := func(root string) (map[string][]byte, error) {
		files := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files[rel], err = os.ReadFile(path)
			return err
		})
		return files, err
	}
	fa, err := read(a)
	if err != nil {
		return err
	}
	fb, err := read(b)
	if err != nil {
		return err
	}
	if len(fa) != len(fb) {
		return fmt.Errorf("%d files vs %d", len(fa), len(fb))
	}
	for name, data := range fa {
		if string(fb[name]) != string(data) {
			return fmt.Errorf("%s differs", name)
		}
	}
	return nil
}
