package dist

import (
	"fmt"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Assign implements the parent-scope array assignment dst = src between two
// distributed arrays with the same global shape but possibly different
// layouts, groups or subgroups — e.g. the pipeline statement A2 = A1 of
// Figure 2.
//
// Participation is minimal (Section 4, "Identification of minimal processor
// subsets"): a processor that owns no part of either array returns
// immediately without synchronizing, so other subgroups can run ahead —
// this is what makes data-parallel pipelines pipeline. Processors that own
// only source elements send and return; processors that own destination
// elements receive (or copy locally) exactly what they need. Empty messages
// are never exchanged.
func Assign[T any](p *machine.Proc, dst, src *Array[T]) {
	perm := make([]int, dst.l.Rank())
	for i := range perm {
		perm[i] = i
	}
	remapPerm(p, dst, src, perm)
}

// Transpose2D implements dst[i][j] = src[j][i] for rank-2 arrays — the
// "corner turn" of the radar benchmark and the middle step of the 2D FFT.
func Transpose2D[T any](p *machine.Proc, dst, src *Array[T]) {
	remapPerm(p, dst, src, []int{1, 0})
}

// remapPerm implements dst[I] = src[J] where J[perm[d]] = I[d]; that is,
// dst dimension d ranges over src dimension perm[d]. perm must be a
// permutation of the dimensions and shapes must agree accordingly.
//
// Correctness of message matching: both sides enumerate the transferred
// elements in destination global row-major order. The receiver's local
// row-major order is exactly that order restricted to its owned set
// (local-to-global maps are strictly increasing per dimension); the sender
// walks its source dimensions in the order perm[0], perm[1], ..., which
// enumerates its owned source set in the same destination order. Restricted
// to one (sender, receiver) pair both sequences are the same set in the same
// order, so per-pair FIFO delivery needs no element indices on the wire.
//
// Both sides walk their own elements as affine runs (eachRun) cut where the
// owner on the other side changes, once to count per peer and once to move
// data: a sender fills exactly-sized buckets, a receiver places each
// sender's values through a cursor into that stream.
func remapPerm[T any](p *machine.Proc, dst, src *Array[T], perm []int) {
	if src.l.Rank() != dst.l.Rank() || len(perm) != dst.l.Rank() {
		panic(fmt.Sprintf("dist: remap rank mismatch: src %v dst %v perm %v", src.l, dst.l, perm))
	}
	for d := range perm {
		if src.l.shape[perm[d]] != dst.l.shape[d] {
			panic(fmt.Sprintf("dist: remap shape mismatch: src %v dst %v perm %v", src.l.shape, dst.l.shape, perm))
		}
	}
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return // minimal processor subset: not a participant
	}

	elemBytes := comm.ElemBytes[T]()
	nd := dst.l.Rank()
	last := nd - 1

	if isSender {
		// Walk my source elements in destination row-major order, cutting
		// each run where its destination owner changes.
		dstIdx := make([]int, nd)
		dl := dst.l.dims[last]
		walk := func(emit func(r, off, ostride, n int)) {
			src.l.eachRun(src.rank, perm, func(idx []int, off, ostride, step, n int) {
				for d := range dstIdx {
					dstIdx[d] = idx[perm[d]]
				}
				for n > 0 {
					k, _ := dl.span(dstIdx[last], step, n)
					emit(dst.l.owner(dstIdx), off, ostride, k)
					dstIdx[last] += k * step
					off += k * ostride
					n -= k
				}
			})
		}
		counts := make([]int, dst.l.g.Size())
		walk(func(r, _, _, n int) { counts[r] += n })
		bufs := make([][]T, len(counts))
		for r, c := range counts {
			if c > 0 && r != dst.rank {
				bufs[r] = make([]T, 0, c)
			}
		}
		walk(func(r, off, ostride, n int) {
			if r == dst.rank {
				return // the receiver pass below copies locally
			}
			bufs[r] = appendStrided(bufs[r], src.data, off, ostride, n)
		})
		// Send non-empty buckets in destination-rank order (determinism).
		for r, vals := range bufs {
			if len(vals) > 0 {
				sendSlice(p, dst.l.g.Phys(r), &bufs[r], len(vals)*elemBytes)
			}
		}
	}

	if isReceiver {
		// Walk my destination elements in local row-major order, cutting
		// each run where its source owner changes; resolve runs I own on the
		// source side by a local copy and the rest from the senders' streams.
		srcIdx := make([]int, nd)
		pl := perm[last]
		sl := src.l.dims[pl]
		var slocal []int // local row-major strides of my source part
		if isSender {
			slocal = rowMajorStrides(src.localShape)
		}
		// walk emits the runs other ranks send; the first walk (copyLocal)
		// also copies the runs this processor holds on the source side.
		walk := func(copyLocal bool, emit func(s, off, n int)) {
			dst.l.eachRun(dst.rank, nil, func(idx []int, off, _, step, n int) {
				for d := range idx {
					srcIdx[perm[d]] = idx[d]
				}
				for n > 0 {
					k, ls := sl.span(srcIdx[pl], step, n)
					s := src.l.owner(srcIdx)
					if s != src.rank {
						emit(s, off, k)
					} else if copyLocal {
						soff := src.l.localOffset(srcIdx, src.localShape)
						copyStrided(dst.data[off:off+k], src.data, soff, ls*slocal[pl])
					}
					srcIdx[pl] += k * step
					off += k
					n -= k
				}
			})
		}
		counts := make([]int, src.l.g.Size())
		walk(true, func(s, _, n int) { counts[s] += n })
		// Receive from senders in ascending source-rank order. Senders are
		// distinct physical processors, so per-pair FIFO plus identical
		// enumeration order guarantees each stream arrives in the order the
		// second walk consumes it.
		streams := make([][]T, len(counts))
		for s, c := range counts {
			if c == 0 {
				continue
			}
			vals := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != c {
				panic(fmt.Sprintf("dist: processor %d expected %d elements from rank %d, got %d", p.ID(), c, s, len(vals)))
			}
			streams[s] = vals
		}
		walk(false, func(s, off, n int) {
			streams[s] = streams[s][copy(dst.data[off:off+n], streams[s]):]
		})
	}
}

// appendStrided appends the n elements src[off], src[off+stride], ... to buf.
func appendStrided[T any](buf, src []T, off, stride, n int) []T {
	if stride == 1 {
		return append(buf, src[off:off+n]...)
	}
	for k := 0; k < n; k++ {
		buf = append(buf, src[off+k*stride])
	}
	return buf
}

// copyStrided fills dst from src[off], src[off+stride], ...
func copyStrided[T any](dst, src []T, off, stride int) {
	if stride == 1 {
		copy(dst, src[off:off+len(dst)])
		return
	}
	for k := range dst {
		dst[k] = src[off+k*stride]
	}
}

// sendSlice sends *vals to processor dst, charging bytes. The payload is
// the pointer: boxing a slice in an interface would allocate a header per
// message, while callers sending many messages point into one slice of
// headers allocated per call. Neither the header nor the elements may be
// touched afterwards, because the receiver keeps the slice (see recvSlice).
func sendSlice[T any](p *machine.Proc, dst int, vals *[]T, bytes int) {
	p.Send(dst, vals, bytes)
}

// recvSlice receives the slice a sendSlice from srcPhys carries.
func recvSlice[T any](p *machine.Proc, srcPhys int) []T {
	msg := p.Recv(srcPhys)
	vals, ok := msg.Data.(*[]T)
	if !ok {
		panic(fmt.Sprintf("dist: processor %d expected []%T from %d, got %T", p.ID(), *new(T), srcPhys, msg.Data))
	}
	return *vals
}

// AssignFullGroup is the ablation counterpart of Assign: it performs the
// same data movement but makes *every* processor of the union of both
// groups synchronize on a barrier afterwards, modeling an implementation
// that cannot identify minimal processor subsets. Section 4 predicts this
// destroys pipelined task parallelism; BenchmarkAblationFullGroupAssign
// demonstrates it.
func AssignFullGroup[T any](p *machine.Proc, dst, src *Array[T]) {
	u := group.Union(src.l.g, dst.l.g)
	Assign(p, dst, src)
	if u.Contains(p.ID()) {
		comm.Barrier(p, u)
	}
}

// GatherGlobal collects the whole array in global row-major order at the
// owning group's rank 0 (nil elsewhere). Non-members return nil without
// synchronizing. Intended for result verification and output stages.
func GatherGlobal[T any](p *machine.Proc, a *Array[T]) []T {
	if a.rank < 0 {
		return nil
	}
	g := a.l.g
	if a.rank != 0 {
		if len(a.data) > 0 {
			vals := append([]T(nil), a.data...)
			sendSlice(p, g.Phys(0), &vals, len(vals)*comm.ElemBytes[T]())
		}
		return nil
	}
	out := make([]T, a.l.Size())
	strides := rowMajorStrides(a.l.shape)
	for r := 0; r < g.Size(); r++ {
		vals := a.data
		if r > 0 {
			if a.l.LocalCount(r) == 0 {
				continue
			}
			vals = recvSlice[T](p, g.Phys(r))
		}
		a.l.eachRun(r, nil, func(idx []int, off, _, step, n int) {
			flat := flatOf(idx, strides)
			if step == 1 {
				copy(out[flat:flat+n], vals[off:off+n])
				return
			}
			for k := 0; k < n; k++ {
				out[flat+k*step] = vals[off+k]
			}
		})
	}
	return out
}

// ScatterGlobal distributes full (global row-major, significant at the
// owning group's rank 0) into the array. All members must call it.
func ScatterGlobal[T any](p *machine.Proc, a *Array[T], full []T) {
	if a.rank < 0 {
		return
	}
	g := a.l.g
	if a.rank == 0 {
		if len(full) != a.l.Size() {
			panic(fmt.Sprintf("dist: ScatterGlobal got %d elements for %v", len(full), a.l))
		}
		strides := rowMajorStrides(a.l.shape)
		bufs := make([][]T, g.Size())
		bufs[0] = a.data
		for r := range bufs {
			cnt := a.l.LocalCount(r)
			if cnt == 0 {
				continue
			}
			if r > 0 {
				bufs[r] = make([]T, cnt)
			}
			vals := bufs[r]
			a.l.eachRun(r, nil, func(idx []int, off, _, step, n int) {
				copyStrided(vals[off:off+n], full, flatOf(idx, strides), step)
			})
			if r > 0 {
				sendSlice(p, g.Phys(r), &bufs[r], cnt*comm.ElemBytes[T]())
			}
		}
		return
	}
	if len(a.data) > 0 {
		copy(a.data, recvSlice[T](p, g.Phys(0)))
	}
}

func rowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// flatOf returns the row-major offset of idx for the given strides.
func flatOf(idx, strides []int) int {
	flat := 0
	for d, x := range idx {
		flat += x * strides[d]
	}
	return flat
}
