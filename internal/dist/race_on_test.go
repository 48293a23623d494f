//go:build race

package dist

// raceEnabled reports whether this test binary runs under the race
// detector: allocation guards skip (the detector adds allocations of its
// own) and randomized property tests trim their iteration counts.
const raceEnabled = true
