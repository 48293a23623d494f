package dist

import (
	"fmt"

	"fxpar/internal/comm"
	"fxpar/internal/machine"
)

// Remap copies elements of src into dst under an arbitrary (partial) index
// mapping: for every source index S, mapIdx may fill dst index D (returning
// true) or skip the element (returning false). It generalizes Assign,
// Transpose2D and the HPF shift/section operations. Unmapped destination
// elements are left untouched.
//
// Matching protocol: the sender enumerates its own source elements in local
// row-major order; the receiver reproduces, for every source rank, that
// rank's enumeration from the layout alone. Both therefore agree on the
// per-pair element sequence without index headers. The receiver pass costs
// O(global source size / receivers) per receiver in the worst case; the
// structured operations below keep sections small where it matters.
//
// mapIdx must be deterministic and must not modify srcIdx or retain either
// slice (they are reused across calls). Participation is minimal:
// processors owning neither source nor destination return immediately.
func Remap[T any](p *machine.Proc, dst, src *Array[T], mapIdx func(srcIdx []int, dstIdx []int) bool) {
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return
	}
	elemBytes := comm.ElemBytes[T]()
	dstIdx := make([]int, dst.l.Rank())

	if isSender {
		// Count per destination rank (placing local elements on the way),
		// then fill exactly-sized buckets in a second enumeration.
		counts := make([]int, dst.l.g.Size())
		src.eachLocal(func(off int, srcIdx []int) {
			if !mapIdx(srcIdx, dstIdx) {
				return
			}
			dst.l.checkIndex(dstIdx)
			r := dst.l.owner(dstIdx)
			if r == dst.rank {
				// Local path: place immediately (the receiver pass below
				// skips self pairs).
				dst.data[dst.l.localOffset(dstIdx, dst.localShape)] = src.data[off]
				return
			}
			counts[r]++
		})
		bufs := make([][]T, len(counts))
		for r, c := range counts {
			if c > 0 {
				bufs[r] = make([]T, 0, c)
			}
		}
		src.eachLocal(func(off int, srcIdx []int) {
			if mapIdx(srcIdx, dstIdx) {
				if r := dst.l.owner(dstIdx); r != dst.rank {
					bufs[r] = append(bufs[r], src.data[off])
				}
			}
		})
		for r, vals := range bufs {
			if len(vals) > 0 {
				sendSlice(p, dst.l.g.Phys(r), &bufs[r], len(vals)*elemBytes)
			}
		}
	}

	if isReceiver && len(dst.data) > 0 {
		// runs holds, for one sender, the destination offsets its stream
		// fills, as (offset, length) pairs of contiguous local storage.
		var runs []int
		for s := 0; s < src.l.g.Size(); s++ {
			if s == src.rank {
				continue // local path handled on the sender side
			}
			runs = runs[:0]
			total := 0
			src.l.eachIndex(s, func(_ int, srcIdx []int) {
				if !mapIdx(srcIdx, dstIdx) {
					return
				}
				dst.l.checkIndex(dstIdx)
				if dst.l.owner(dstIdx) != dst.rank {
					return
				}
				off := dst.l.localOffset(dstIdx, dst.localShape)
				if k := len(runs); k > 0 && runs[k-2]+runs[k-1] == off {
					runs[k-1]++
				} else {
					runs = append(runs, off, 1)
				}
				total++
			})
			if total == 0 {
				continue
			}
			vals := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != total {
				panic(fmt.Sprintf("dist: Remap expected %d elements from rank %d, got %d", total, s, len(vals)))
			}
			for i := 0; i < len(runs); i += 2 {
				off, n := runs[i], runs[i+1]
				vals = vals[copy(dst.data[off:off+n], vals):]
			}
		}
	}
}

// CShift implements HPF's CSHIFT: dst[..., i, ...] = src[..., (i+shift) mod
// n, ...] along the given axis. Shapes and ranks must match.
func CShift[T any](p *machine.Proc, dst, src *Array[T], axis, shift int) {
	checkShiftArgs(dst, src, axis)
	n := src.l.shape[axis]
	shift = ((shift % n) + n) % n
	Remap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		copy(dstIdx, srcIdx)
		dstIdx[axis] = ((srcIdx[axis]-shift)%n + n) % n
		return true
	})
}

// EOShift implements HPF's EOSHIFT: elements shifted past the edge are
// dropped and vacated positions take the boundary value.
func EOShift[T any](p *machine.Proc, dst, src *Array[T], axis, shift int, boundary T) {
	checkShiftArgs(dst, src, axis)
	n := src.l.shape[axis]
	// Pre-fill the vacated band with the boundary value (local, no comm).
	if dst.rank >= 0 {
		dst.eachLocal(func(off int, idx []int) {
			j := idx[axis] + shift
			if j < 0 || j >= n {
				dst.data[off] = boundary
			}
		})
	}
	Remap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		j := srcIdx[axis] - shift
		if j < 0 || j >= n {
			return false
		}
		copy(dstIdx, srcIdx)
		dstIdx[axis] = j
		return true
	})
}

func checkShiftArgs[T any](dst, src *Array[T], axis int) {
	if src.l.Rank() != dst.l.Rank() || axis < 0 || axis >= src.l.Rank() {
		panic(fmt.Sprintf("dist: shift axis %d of rank-%d arrays", axis, src.l.Rank()))
	}
	for d := range src.l.shape {
		if src.l.shape[d] != dst.l.shape[d] {
			panic(fmt.Sprintf("dist: shift shape mismatch %v vs %v", src.l.shape, dst.l.shape))
		}
	}
}

// CopySection copies the box of the given shape starting at srcOff in src
// to the box starting at dstOff in dst — the array-section assignment
// multiblock codes use to exchange block boundaries. Boxes must fit in both
// arrays.
func CopySection[T any](p *machine.Proc, dst *Array[T], dstOff []int, src *Array[T], srcOff, shape []int) {
	nd := src.l.Rank()
	if dst.l.Rank() != nd || len(dstOff) != nd || len(srcOff) != nd || len(shape) != nd {
		panic(fmt.Sprintf("dist: CopySection rank mismatch (src rank %d, dst rank %d, offs %d/%d, shape %d)",
			nd, dst.l.Rank(), len(srcOff), len(dstOff), len(shape)))
	}
	for d := 0; d < nd; d++ {
		if srcOff[d] < 0 || srcOff[d]+shape[d] > src.l.shape[d] ||
			dstOff[d] < 0 || dstOff[d]+shape[d] > dst.l.shape[d] || shape[d] <= 0 {
			panic(fmt.Sprintf("dist: CopySection box out of range: srcOff %v dstOff %v shape %v src %v dst %v",
				srcOff, dstOff, shape, src.l.shape, dst.l.shape))
		}
	}
	Remap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		for d := 0; d < nd; d++ {
			rel := srcIdx[d] - srcOff[d]
			if rel < 0 || rel >= shape[d] {
				return false
			}
			dstIdx[d] = dstOff[d] + rel
		}
		return true
	})
}

// ReduceAxis reduces src along the given axis with op into dst, whose shape
// must equal src's shape with that axis removed. Every processor owning
// part of either array must call it. Partial results are combined first in
// each sender's local order and then in source-rank order at the
// destination owner — a deterministic order that may differ from sequential
// evaluation (relevant for non-associative floating point reductions).
func ReduceAxis[T any](p *machine.Proc, dst *Array[T], src *Array[T], axis int, op func(a, b T) T) {
	nd := src.l.Rank()
	if axis < 0 || axis >= nd || dst.l.Rank() != nd-1 {
		panic(fmt.Sprintf("dist: ReduceAxis axis %d of rank-%d into rank-%d", axis, nd, dst.l.Rank()))
	}
	for d, dd := 0, 0; d < nd; d++ {
		if d == axis {
			continue
		}
		if dst.l.shape[dd] != src.l.shape[d] {
			panic(fmt.Sprintf("dist: ReduceAxis shape mismatch: src %v minus axis %d vs dst %v", src.l.shape, axis, dst.l.shape))
		}
		dd++
	}
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return
	}
	elemBytes := comm.ElemBytes[T]()

	// The partials of source rank s are its owned indices with the axis
	// dropped: the box of its non-axis local extents, whose row-major order
	// is the order in which its elements first reach each reduced index.
	// enumerate walks that box (axis pinned at local index 0) as runs cut
	// where the destination owner changes, giving for each run its owner
	// r, its position pos in the box, its destination local offset and
	// stride when r is this processor's rank (-1 otherwise), and its length.
	keep := make([]int, 0, nd-1)
	for d := 0; d < nd; d++ {
		if d != axis {
			keep = append(keep, d)
		}
	}
	reduced := make([]int, nd-1)
	dl := dst.l.dims[nd-2]
	enumerate := func(s int, emit func(r, pos, doff, dstride, n int)) {
		pos := 0
		src.l.eachRun(s, keep, func(idx []int, _, _, step, n int) {
			for dd, d := range keep {
				reduced[dd] = idx[d]
			}
			for n > 0 {
				k, ls := dl.span(reduced[nd-2], step, n)
				r, doff := dst.l.owner(reduced), -1
				if r == dst.rank {
					doff = dst.l.localOffset(reduced, dst.localShape)
				}
				emit(r, pos, doff, ls, k)
				reduced[nd-2] += k * step
				pos += k
				n -= k
			}
		})
	}

	// seeded tracks, on the receiver, which destination elements have
	// received their first contribution this call.
	var seeded []bool
	if isReceiver {
		seeded = make([]bool, len(dst.data))
	}
	combine := func(doff, dstride int, vals []T) {
		for i, v := range vals {
			off := doff + i*dstride
			if seeded[off] {
				dst.data[off] = op(dst.data[off], v)
			} else {
				dst.data[off] = v
				seeded[off] = true
			}
		}
	}

	if isSender && len(src.data) > 0 {
		// Local partials, in box order: each combines its elements along the
		// axis in local order.
		ext := src.localShape[axis]
		inner := 1
		for d := axis + 1; d < nd; d++ {
			inner *= src.localShape[d]
		}
		outer := len(src.data) / (ext * inner)
		partials := make([]T, outer*inner)
		for o := 0; o < outer; o++ {
			part := partials[o*inner : (o+1)*inner]
			row := src.data[o*ext*inner:]
			copy(part, row[:inner])
			for a := 1; a < ext; a++ {
				for i, v := range row[a*inner : (a+1)*inner] {
					part[i] = op(part[i], v)
				}
			}
		}
		// Bucket per destination owner in enumeration order.
		counts := make([]int, dst.l.g.Size())
		enumerate(src.rank, func(r, _, _, _, n int) { counts[r] += n })
		bufs := make([][]T, len(counts))
		for r, c := range counts {
			if c > 0 && r != dst.rank {
				bufs[r] = make([]T, 0, c)
			}
		}
		enumerate(src.rank, func(r, pos, doff, dstride, n int) {
			if r == dst.rank {
				// Self contributions seed or extend the local combine state.
				combine(doff, dstride, partials[pos:pos+n])
				return
			}
			bufs[r] = append(bufs[r], partials[pos:pos+n]...)
		})
		for r, vals := range bufs {
			if len(vals) > 0 {
				sendSlice(p, dst.l.g.Phys(r), &bufs[r], len(vals)*elemBytes)
			}
		}
	}

	if isReceiver && len(dst.data) > 0 {
		for s := 0; s < src.l.g.Size(); s++ {
			if s == src.rank {
				continue
			}
			cnt := 0
			enumerate(s, func(r, _, _, _, n int) {
				if r == dst.rank {
					cnt += n
				}
			})
			if cnt == 0 {
				continue
			}
			vals := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != cnt {
				panic(fmt.Sprintf("dist: ReduceAxis expected %d partials from rank %d, got %d", cnt, s, len(vals)))
			}
			enumerate(s, func(r, _, doff, dstride, n int) {
				if r == dst.rank {
					combine(doff, dstride, vals[:n])
					vals = vals[n:]
				}
			})
		}
	}
}
