package main

import (
	"os"
	"path/filepath"
	"testing"

	"fxpar/internal/experiments"
	"fxpar/internal/mapping"
	"fxpar/internal/skeleton"
)

// quickPass runs a quick-size Table 1 pass with its cost tables answered
// from a fresh Store over dir, as a table1-warm operation does, and returns
// the store's counters.
func quickPass(dir string) skeleton.StoreStats {
	mapping.ResetTableMemo()
	defer mapping.ResetTableMemo()
	st := skeleton.NewStore(dir)
	cfg := experiments.QuickTable1()
	cfg.Workers = 1
	cfg.Replay = &mapping.ReplayOptions{Store: st}
	experiments.Table1(cfg)
	return st.Stats()
}

// TestCheckWarmPass checks that the warm-pass check accepts a pass over a
// filled store and refuses passes that captured live: one over an empty
// store, and one over a store that lost all but one skeleton (the pass
// writes the lost ones back, so only the disk hits show it).
func TestCheckWarmPass(t *testing.T) {
	full := t.TempDir()
	quickPass(full)
	stored, err := countFiles(full)
	if err != nil || stored < 2 {
		t.Fatalf("capture stored %d skeletons (%v)", stored, err)
	}
	if err := checkWarmPass(full, stored, quickPass(full)); err != nil {
		t.Errorf("warm pass over the filled store: %v", err)
	}

	empty := t.TempDir()
	if err := checkWarmPass(empty, stored, quickPass(empty)); err == nil {
		t.Error("warm pass over an empty store passed the check")
	}

	partial := t.TempDir()
	files, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(full, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(partial, files[0].Name()), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s := quickPass(partial); checkWarmPass(partial, stored, s) == nil {
		t.Errorf("warm pass over one of %d skeletons passed the check (%+v)", stored, s)
	}
}
