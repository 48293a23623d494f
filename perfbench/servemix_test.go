package main

import (
	"math/rand"
	"testing"
)

// Every stream has the same length and sends each known-defect body exactly
// once, whatever the seed, so every run's failed count is the same.
func TestServeStreamDefectBodiesOnce(t *testing.T) {
	space := serveSpace()
	var defects int
	for _, r := range space {
		if knownDefect(r) {
			defects++
		}
	}
	if defects != 12 {
		t.Fatalf("%d known-defect bodies in the space, want 12", defects)
	}
	for seed := int64(1); seed <= 20; seed++ {
		stream := serveStream(rand.New(rand.NewSource(seed)))
		if want := len(space) * (serveRepeats + 1); len(stream) != want {
			t.Fatalf("seed %d: stream of %d requests, want %d", seed, len(stream), want)
		}
		sent := map[string]int{}
		for _, r := range stream {
			sent[r.key]++
		}
		for _, r := range space {
			if knownDefect(r) && sent[r.key] != 1 {
				t.Errorf("seed %d: %s sent %d times, want once", seed, r.key, sent[r.key])
			}
		}
	}
}
