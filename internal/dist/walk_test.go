package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// randLayout draws a layout over a group of distinct processors drawn from
// [0, procs), mixing every distribution kind, uneven extents (so trailing
// BLOCK ranks can own nothing) and non-square grids; half the time the
// layout is an aligned box inside a larger template. shape nil draws a
// shape of 1-3 dimensions.
func randLayout(rng *rand.Rand, procs int, shape []int) *Layout {
	if shape == nil {
		shape = make([]int, 1+rng.Intn(3))
		for d := range shape {
			shape[d] = 1 + rng.Intn(9)
		}
	}
	nd := len(shape)
	aligned := rng.Intn(2) == 0
	for {
		tmpl := slices.Clone(shape)
		axes := make([]Axis, nd)
		grid := make([]int, nd)
		cells := 1
		for d := range shape {
			switch rng.Intn(4) {
			case 0:
				axes[d], grid[d] = CollapsedAxis(), 1
			case 1:
				axes[d], grid[d] = BlockAxis(), 1+rng.Intn(4)
			case 2:
				axes[d], grid[d] = CyclicAxis(), 1+rng.Intn(3)
			default:
				axes[d], grid[d] = BlockCyclicAxis(1+rng.Intn(3)), 1+rng.Intn(3)
			}
			if aligned && axes[d].Kind != BlockCyclic {
				tmpl[d] += rng.Intn(4)
			}
			cells *= grid[d]
		}
		if cells > procs {
			continue
		}
		l := MustLayout(group.MustNew(rng.Perm(procs)[:cells]), tmpl, axes, grid)
		if !aligned {
			return l
		}
		off := make([]int, nd)
		for d := range shape {
			off[d] = rng.Intn(tmpl[d] - shape[d] + 1)
		}
		al, err := NewAligned(l, shape, off)
		if err != nil {
			panic(err)
		}
		return al
	}
}

// element is one visit of a walk: a local offset and its global index.
type element struct {
	off int
	idx []int
}

// expand flattens eachRun's runs into their elements.
func expand(l *Layout, rank int, order []int) []element {
	var out []element
	last := l.Rank() - 1
	if order != nil {
		last = order[len(order)-1]
	}
	l.eachRun(rank, order, func(idx []int, off, ostride, step, n int) {
		for k := 0; k < n; k++ {
			e := element{off: off + k*ostride, idx: slices.Clone(idx)}
			e.idx[last] += k * step
			out = append(out, e)
		}
	})
	return out
}

// oracleOrder lists rank's elements by the direct per-element map, sorted
// row-major over the dimensions in order and restricted to local index 0
// on the dimensions order leaves out.
func oracleOrder(l *Layout, rank int, order []int) []element {
	ls := l.LocalShape(rank)
	in := make([]bool, l.Rank())
	for _, d := range order {
		in[d] = true
	}
	var out []element
	for off := 0; off < l.LocalCount(rank); off++ {
		rem, pinned := off, true
		for d := l.Rank() - 1; d >= 0; d-- {
			if !in[d] && rem%ls[d] != 0 {
				pinned = false
			}
			rem /= ls[d]
		}
		if pinned {
			out = append(out, element{off: off, idx: l.GlobalOfLocal(rank, off)})
		}
	}
	slices.SortStableFunc(out, func(a, b element) int {
		for _, d := range order {
			if a.idx[d] != b.idx[d] {
				return a.idx[d] - b.idx[d]
			}
		}
		return 0
	})
	return out
}

func sameElements(t *testing.T, what string, got, want []element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].off != want[i].off || !slices.Equal(got[i].idx, want[i].idx) {
			t.Fatalf("%s: element %d is (off %d, idx %v), oracle (off %d, idx %v)",
				what, i, got[i].off, got[i].idx, want[i].off, want[i].idx)
		}
	}
}

// TestEachRunMatchesOracle checks the run walk against GlobalOfLocal
// element by element and in the same order: in natural order (what
// eachLocal, FillFunc, ScatterGlobal and GatherGlobal use), in every
// permuted order (the sender side of Assign and Transpose2D), and with one
// dimension pinned (ReduceAxis's partial boxes).
func TestEachRunMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		l := randLayout(rng, 8, nil)
		nd := l.Rank()
		for rank := 0; rank < l.Group().Size(); rank++ {
			what := fmt.Sprintf("%v dims %+v rank %d", l, l.dims, rank)
			natural := make([]int, nd)
			for d := range natural {
				natural[d] = d
			}
			want := oracleOrder(l, rank, natural)
			sameElements(t, what+" natural", expand(l, rank, nil), want)
			var viaIndex []element
			l.eachIndex(rank, func(off int, idx []int) {
				viaIndex = append(viaIndex, element{off, slices.Clone(idx)})
			})
			sameElements(t, what+" eachIndex", viaIndex, want)

			perm := rng.Perm(nd)
			sameElements(t, fmt.Sprintf("%s order %v", what, perm),
				expand(l, rank, perm), oracleOrder(l, rank, perm))
			if nd > 1 {
				drop := rng.Intn(nd)
				keep := slices.Delete(slices.Clone(natural), drop, drop+1)
				sameElements(t, fmt.Sprintf("%s keep %v", what, keep),
					expand(l, rank, keep), oracleOrder(l, rank, keep))
			}
		}
	}
}

// TestSpanMatchesOracle checks dim.span, which cuts runs where the owner on
// the other side of a redistribution changes, against ownerOf and localOf.
func TestSpanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		l := randLayout(rng, 8, nil)
		for _, d := range l.dims {
			for trial := 0; trial < 20; trial++ {
				i := rng.Intn(d.n)
				s := 1 + rng.Intn(4)
				n := 1 + (d.n-1-i)/s
				k, ls := d.span(i, s, n)
				if k < 1 || k > n {
					t.Fatalf("%+v span(%d,%d,%d) = %d", d, i, s, n, k)
				}
				own, loc := d.ownerOf(i), d.localOf(i)
				for j := 1; j < k; j++ {
					if x := i + j*s; d.ownerOf(x) != own || d.localOf(x) != loc+j*ls {
						t.Fatalf("%+v span(%d,%d,%d) = %d, %d: index %d on owner %d at local %d",
							d, i, s, n, k, ls, x, d.ownerOf(x), d.localOf(x))
					}
				}
				// The run is maximal: the next index changes owner or breaks
				// the local stride.
				if x := i + k*s; k < n && d.ownerOf(x) == own && d.localOf(x) == loc+k*ls {
					t.Fatalf("%+v span(%d,%d,%d) = %d, %d: cut before index %d, which continues it", d, i, s, n, k, ls, x)
				}
			}
		}
	}
}

// TestRedistributionMatchesOracle runs Assign or Transpose2D,
// ScatterGlobal, GatherGlobal and ReduceAxis between random layouts on
// overlapping or disjoint groups and checks every element against the value
// the oracle map says it must hold.
func TestRedistributionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const procs = 8
	iters := 150
	if raceEnabled {
		iters = 40
	}
	for iter := 0; iter < iters; iter++ {
		srcL := randLayout(rng, procs, nil)
		nd := srcL.Rank()
		transpose := nd == 2 && rng.Intn(2) == 0
		shape := srcL.Shape()
		if transpose {
			shape[0], shape[1] = shape[1], shape[0]
		}
		dstL := randLayout(rng, procs, shape)
		var redL *Layout
		axis := 0
		if nd > 1 {
			axis = rng.Intn(nd)
			redL = randLayout(rng, procs, slices.Delete(srcL.Shape(), axis, axis+1))
		}
		what := fmt.Sprintf("iter %d: src %v %+v dst %v %+v transpose %v", iter, srcL, srcL.dims, dstL, dstL.dims, transpose)
		full := make([]float64, srcL.Size())
		for i := range full {
			full[i] = float64(i)
		}
		strides := rowMajorStrides(srcL.shape)
		flat := func(idx []int) float64 { return float64(flatOf(idx, strides)) }
		testMachine(procs).Run(func(p *machine.Proc) {
			src := New[float64](p, srcL)
			src.FillFunc(flat)
			dst := New[float64](p, dstL)
			if transpose {
				Transpose2D(p, dst, src)
			} else {
				Assign(p, dst, src)
			}
			for off, v := range dst.Local() {
				idx := dstL.GlobalOfLocal(dst.Rank(), off)
				if transpose {
					idx[0], idx[1] = idx[1], idx[0]
				}
				if v != flat(idx) {
					t.Errorf("%s: dst rank %d offset %d = %v, want %v", what, dst.Rank(), off, v, flat(idx))
				}
			}

			sc := New[float64](p, srcL)
			ScatterGlobal(p, sc, full)
			for off, v := range sc.Local() {
				if want := flat(srcL.GlobalOfLocal(sc.Rank(), off)); v != want {
					t.Errorf("%s: scatter rank %d offset %d = %v, want %v", what, sc.Rank(), off, v, want)
				}
			}
			if got := GatherGlobal(p, sc); sc.Rank() == 0 && !slices.Equal(got, full) {
				t.Errorf("%s: gather = %v, want %v", what, got, full)
			}

			if redL == nil {
				return
			}
			red := New[float64](p, redL)
			ReduceAxis(p, red, src, axis, func(a, b float64) float64 { return a + b })
			for off, v := range red.Local() {
				ri := redL.GlobalOfLocal(red.Rank(), off)
				idx := slices.Insert(slices.Clone(ri), axis, 0)
				want := 0.0
				for i := 0; i < srcL.shape[axis]; i++ {
					idx[axis] = i
					want += flat(idx)
				}
				if v != want {
					t.Errorf("%s: reduce axis %d into %v at %v = %v, want %v", what, axis, redL, ri, v, want)
				}
			}
		})
	}
}
