package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

var (
	// goldenDir holds the expected outputs, one JSON file per workload.
	goldenDir string
	// regenGolden makes checks record outputs instead of comparing them.
	regenGolden bool
)

// golden is one expected output file.
type golden struct {
	path string
	want []byte
}

func loadGolden(name string) (*golden, error) {
	g := &golden{path: filepath.Join(goldenDir, name+".json")}
	if regenGolden {
		return g, nil
	}
	data, err := os.ReadFile(g.path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	g.want = data
	return g, nil
}

// check compares v, rendered as indented JSON, with the golden bytes; under
// --regen-golden it rewrites the file instead.
func (g *golden) check(v any) error {
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	got = append(got, '\n')
	if regenGolden {
		g.want = got
		return os.WriteFile(g.path, got, 0o644)
	}
	if bytes.Equal(got, g.want) {
		return nil
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(g.want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			want := "<end of file>"
			if i < len(wl) {
				want = wl[i]
			}
			return fmt.Errorf("%s line %d: got %q, want %q", filepath.Base(g.path), i+1, gl[i], want)
		}
	}
	return fmt.Errorf("%s: output ends early at line %d", filepath.Base(g.path), len(gl))
}
