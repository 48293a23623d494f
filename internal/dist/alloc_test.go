package dist

import (
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Allocation guards for the redistribution entry points: index arithmetic
// allocates per call, never per element, so the allocations one call makes
// are the same for a 64x64 and a 256x256 array (payload buffers are one
// allocation each whatever their length).

// allocArrays are the operands of one guarded call: two row-block and one
// column-block n-by-n array, and the global vector ScatterGlobal reads.
type allocArrays struct {
	rows, rowsT, cols *Array[float64]
	full              []float64
}

// callAllocs returns the heap allocations one call of op makes on a
// 4-processor machine with n-by-n arrays, as the difference between a run
// making two calls and a run making one (which cancels machine start-up,
// array set-up and first-use mailbox growth).
func callAllocs(t *testing.T, n int, op func(p *machine.Proc, a *allocArrays)) float64 {
	t.Helper()
	full := make([]float64, n*n)
	for i := range full {
		full[i] = float64(i)
	}
	run := func(calls int) float64 {
		return testing.AllocsPerRun(5, func() {
			m := testMachine(4)
			m.SetEngine(machine.Coop(1))
			m.Run(func(p *machine.Proc) {
				g := group.World(4)
				a := &allocArrays{
					rows:  New[float64](p, RowBlock2D(g, n, n)),
					rowsT: New[float64](p, RowBlock2D(g, n, n)),
					cols:  New[float64](p, ColBlock2D(g, n, n)),
					full:  full,
				}
				for i := 0; i < calls; i++ {
					op(p, a)
				}
			})
		})
	}
	return run(2) - run(1)
}

func TestRedistributionAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ops := []struct {
		name string
		op   func(p *machine.Proc, a *allocArrays)
	}{
		{"ScatterGlobal", func(p *machine.Proc, a *allocArrays) { ScatterGlobal(p, a.rows, a.full) }},
		{"GatherGlobal", func(p *machine.Proc, a *allocArrays) { GatherGlobal(p, a.rows) }},
		{"Transpose2D", func(p *machine.Proc, a *allocArrays) { Transpose2D(p, a.rowsT, a.rows) }},
		{"Assign", func(p *machine.Proc, a *allocArrays) { Assign(p, a.cols, a.rows) }},
	}
	for _, c := range ops {
		small := callAllocs(t, 64, c.op)
		large := callAllocs(t, 256, c.op)
		t.Logf("%s: %.0f allocations per call at 64x64, %.0f at 256x256", c.name, small, large)
		if large != small {
			t.Errorf("%s allocates %.0f per call at 64x64 but %.0f at 256x256: allocations grow with element count",
				c.name, small, large)
		}
	}
}
