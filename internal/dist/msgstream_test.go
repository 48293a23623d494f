package dist

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

var updateStream = flag.Bool("update", false, "rewrite testdata/msgstream.golden")

// streamRecorder keeps the send and receive events of a traced run.
type streamRecorder struct {
	mu  sync.Mutex
	evs []machine.Event
}

func (r *streamRecorder) Record(e machine.Event) {
	if e.Kind != machine.EvSend && e.Kind != machine.EvRecv {
		return
	}
	r.mu.Lock()
	r.evs = append(r.evs, e)
	r.mu.Unlock()
}

// streamCase is one redistribution whose per-processor message stream and
// resulting local data are pinned by the golden file. run returns the
// array whose local part is hashed (nil: nothing to hash on this proc) and,
// for the gather case, the gathered vector.
type streamCase struct {
	name string
	n    int
	run  func(p *machine.Proc) (*Array[float64], []float64)
}

// valueOf is a deterministic, bit-sensitive element value.
func valueOf(idx []int) float64 {
	v := 1.0
	for _, x := range idx {
		v = v*31 + float64(x)
	}
	return 1 / (v + 0.5)
}

func fillVal(a *Array[float64]) { a.FillFunc(valueOf) }

func streamCases() []streamCase {
	sum := func(a, b float64) float64 { return a + b }
	lay := MustLayout
	return []streamCase{
		{"assign/1d-block-to-cyclic-same-group", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			g := group.World(4)
			src := New[float64](p, lay(g, []int{10}, []Axis{BlockAxis()}, []int{4}))
			dst := New[float64](p, lay(g, []int{10}, []Axis{CyclicAxis()}, []int{4}))
			fillVal(src)
			Assign(p, dst, src)
			return dst, nil
		}},
		{"assign/1d-trailing-empty-disjoint", 7, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, lay(group.MustNew([]int{0, 1, 2, 3}), []int{9}, []Axis{BlockAxis()}, []int{4}))
			dst := New[float64](p, lay(group.MustNew([]int{4, 5, 6}), []int{9}, []Axis{BlockCyclicAxis(2)}, []int{3}))
			fillVal(src)
			Assign(p, dst, src)
			return dst, nil
		}},
		{"assign/2d-rows-to-cols-overlapping", 5, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, RowBlock2D(group.MustNew([]int{0, 1, 2, 3}), 7, 9))
			dst := New[float64](p, ColBlock2D(group.MustNew([]int{2, 3, 4}), 7, 9))
			fillVal(src)
			Assign(p, dst, src)
			return dst, nil
		}},
		{"assign/3d-mixed-grid", 6, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, lay(group.MustNew([]int{0, 1, 2, 3}), []int{5, 4, 6},
				[]Axis{BlockAxis(), CollapsedAxis(), CyclicAxis()}, []int{2, 1, 2}))
			dst := New[float64](p, lay(group.MustNew([]int{3, 4, 5, 0, 1, 2}), []int{5, 4, 6},
				[]Axis{CyclicAxis(), BlockCyclicAxis(3), BlockAxis()}, []int{2, 3, 1}))
			fillVal(src)
			Assign(p, dst, src)
			return dst, nil
		}},
		{"assign/aligned-to-cyclic", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			g := group.World(4)
			base := lay(g, []int{16, 6}, []Axis{BlockAxis(), CollapsedAxis()}, []int{4, 1})
			al, err := NewAligned(base, []int{10, 4}, []int{3, 1})
			if err != nil {
				panic(err)
			}
			src := New[float64](p, al)
			dst := New[float64](p, lay(g, []int{10, 4}, []Axis{CyclicAxis(), CollapsedAxis()}, []int{4, 1}))
			fillVal(src)
			Assign(p, dst, src)
			return dst, nil
		}},
		{"transpose/square-same-group", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			g := group.World(4)
			src := New[float64](p, RowBlock2D(g, 8, 8))
			dst := New[float64](p, RowBlock2D(g, 8, 8))
			fillVal(src)
			Transpose2D(p, dst, src)
			return dst, nil
		}},
		{"transpose/nonsquare-disjoint", 5, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, RowBlock2D(group.MustNew([]int{0, 1}), 6, 10))
			dst := New[float64](p, lay(group.MustNew([]int{2, 3, 4}), []int{10, 6},
				[]Axis{BlockCyclicAxis(2), CollapsedAxis()}, []int{3, 1}))
			fillVal(src)
			Transpose2D(p, dst, src)
			return dst, nil
		}},
		{"transpose/grid-2x2-overlapping", 6, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, lay(group.MustNew([]int{0, 1, 2, 3}), []int{7, 5},
				[]Axis{BlockAxis(), CyclicAxis()}, []int{2, 2}))
			dst := New[float64](p, ColBlock2D(group.MustNew([]int{2, 3, 4, 5}), 5, 7))
			fillVal(src)
			Transpose2D(p, dst, src)
			return dst, nil
		}},
		{"cshift/1d-cyclic", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			g := group.World(4)
			src := New[float64](p, lay(g, []int{10}, []Axis{CyclicAxis()}, []int{4}))
			dst := New[float64](p, lay(g, []int{10}, []Axis{BlockAxis()}, []int{4}))
			fillVal(src)
			CShift(p, dst, src, 0, 3)
			return dst, nil
		}},
		{"cshift/2d-rows-to-cols-disjoint", 5, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, RowBlock2D(group.MustNew([]int{0, 1, 2}), 6, 5))
			dst := New[float64](p, ColBlock2D(group.MustNew([]int{3, 4}), 6, 5))
			fillVal(src)
			CShift(p, dst, src, 0, -2)
			return dst, nil
		}},
		{"eoshift/2d-axis1", 3, func(p *machine.Proc) (*Array[float64], []float64) {
			g := group.World(3)
			src := New[float64](p, RowBlock2D(g, 5, 6))
			dst := New[float64](p, ColBlock2D(g, 5, 6))
			fillVal(src)
			EOShift(p, dst, src, 1, 2, -1)
			return dst, nil
		}},
		{"copysection/overlapping", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, RowBlock2D(group.MustNew([]int{0, 1, 2}), 9, 6))
			dst := New[float64](p, lay(group.MustNew([]int{1, 2, 3}), []int{8, 8},
				[]Axis{CyclicAxis(), CollapsedAxis()}, []int{3, 1}))
			fillVal(src)
			CopySection(p, dst, []int{1, 2}, src, []int{3, 0}, []int{5, 4})
			return dst, nil
		}},
		{"reduce/axis0-overlapping", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, lay(group.MustNew([]int{0, 1, 2, 3}), []int{9, 6},
				[]Axis{BlockAxis(), CollapsedAxis()}, []int{4, 1}))
			dst := New[float64](p, lay(group.MustNew([]int{1, 2}), []int{6}, []Axis{CyclicAxis()}, []int{2}))
			fillVal(src)
			ReduceAxis(p, dst, src, 0, sum)
			return dst, nil
		}},
		{"reduce/3d-axis1-disjoint", 6, func(p *machine.Proc) (*Array[float64], []float64) {
			src := New[float64](p, lay(group.MustNew([]int{0, 1, 2, 3}), []int{4, 5, 3},
				[]Axis{BlockAxis(), CyclicAxis(), CollapsedAxis()}, []int{2, 2, 1}))
			dst := New[float64](p, lay(group.MustNew([]int{4, 5}), []int{4, 3},
				[]Axis{CollapsedAxis(), BlockAxis()}, []int{1, 2}))
			fillVal(src)
			ReduceAxis(p, dst, src, 1, sum)
			return dst, nil
		}},
		{"scatter-gather/2d-trailing-empty", 4, func(p *machine.Proc) (*Array[float64], []float64) {
			a := New[float64](p, RowBlock2D(group.World(4), 9, 5))
			full := make([]float64, 45)
			for i := range full {
				full[i] = valueOf([]int{i})
			}
			ScatterGlobal(p, a, full)
			return a, GatherGlobal(p, a)
		}},
		{"scatter-gather/3d-blockcyclic", 5, func(p *machine.Proc) (*Array[float64], []float64) {
			a := New[float64](p, lay(group.MustNew([]int{4, 3, 2, 1}), []int{7, 3, 5},
				[]Axis{BlockCyclicAxis(2), CollapsedAxis(), CyclicAxis()}, []int{2, 1, 2}))
			full := make([]float64, 105)
			for i := range full {
				full[i] = valueOf([]int{i, 1})
			}
			ScatterGlobal(p, a, full)
			return a, GatherGlobal(p, a)
		}},
	}
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// renderStream runs c and renders every processor's send/receive sequence
// (in program order) and a hash of its resulting local data.
func renderStream(c streamCase) string {
	m := testMachine(c.n)
	rec := &streamRecorder{}
	m.SetTracer(rec)
	local := make([]string, c.n)
	m.Run(func(p *machine.Proc) {
		a, gathered := c.run(p)
		s := ""
		if a != nil && a.IsMember() {
			s = fmt.Sprintf(" local=%d:%016x", len(a.Local()), hashFloats(a.Local()))
		}
		if gathered != nil {
			s += fmt.Sprintf(" gathered=%016x", hashFloats(gathered))
		}
		local[p.ID()] = s
	})
	sort.Slice(rec.evs, func(i, j int) bool {
		if rec.evs[i].Proc != rec.evs[j].Proc {
			return rec.evs[i].Proc < rec.evs[j].Proc
		}
		return rec.evs[i].Seq < rec.evs[j].Seq
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s\n", c.name)
	i := 0
	for proc := 0; proc < c.n; proc++ {
		fmt.Fprintf(&b, "p%d%s\n", proc, local[proc])
		for ; i < len(rec.evs) && rec.evs[i].Proc == proc; i++ {
			e := rec.evs[i]
			if e.Kind == machine.EvSend {
				fmt.Fprintf(&b, "  send %d->%d %dB\n", proc, e.Peer, e.Bytes)
			} else {
				fmt.Fprintf(&b, "  recv %d<-%d %dB\n", proc, e.Peer, e.Bytes)
			}
		}
	}
	return b.String()
}

// TestMessageStreamGolden pins, for every redistribution entry point, the
// exact (src, dst, bytes) sequence each processor sends and receives and
// the bits of the data it ends up holding, over overlapping and disjoint
// groups, mixed distributions and ranks that own nothing. The index
// arithmetic may be reorganised freely; this stream may not change.
func TestMessageStreamGolden(t *testing.T) {
	var b bytes.Buffer
	for _, c := range streamCases() {
		b.WriteString(renderStream(c))
	}
	path := filepath.Join("testdata", "msgstream.golden")
	if *updateStream {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got := bytes.Split(b.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, e []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if !bytes.Equal(g, e) {
				t.Fatalf("message stream differs at line %d:\n got %q\nwant %q", i+1, g, e)
			}
		}
	}
}
