package matrix

import (
	"fmt"
	"math"
	"sync"
)

// This file is the packed, register-blocked GEMM compute layer: the one hot
// loop every kernel in the repository — the serial replays and the
// distributed engine's block updates — bottoms out in.
//
// The structure is the classic three-level cache blocking (Goto/BLIS):
//
//	for jc over N in steps of gemmNC        C column slab
//	  for pc over K in steps of gemmKC      packed B(pc:pc+kc, jc:jc+nc)
//	    for ic over M in steps of gemmMC    packed alpha·A(ic:ic+mc, pc:pc+kc)
//	      macro kernel: gemmMR×gemmNR register tiles over the packed panels
//
// A is packed into row panels of gemmMR rows (k-major, so the micro-kernel
// streams it sequentially) with alpha folded in during packing; B is packed
// into column panels of gemmNR columns. The packed A block (mc×kc) is sized
// for L2, one packed B column panel (kc×nr) for L1. Both operands are packed
// whole, block by block in this order, before the macro kernels run, so one
// packing serves every product an operand enters (AddMulBlocks).
//
// Determinism contract: for every output element C[i,j] the products
// alpha·A[i,k]·B[k,j] are accumulated in strictly increasing k order, each as
// a separate rounded multiply and a separate rounded add onto an accumulator
// initialized from C[i,j] — exactly the operation sequence of the scalar
// reference AddMulScalar. The packed path is therefore bit-identical to the
// scalar path for all inputs (including ±0, ±Inf, and whether an output is
// NaN), which is what lets the distributed engine stay bit-identical to the
// serial replays while routing through this kernel. The sole caveat is NaN
// payloads: when two distinct NaNs meet in an add, x86 keeps the first
// source operand's payload, and operand order is compiler codegen — so
// which quiet-NaN bit pattern appears in a NaN output may differ between
// kernels, while NaN-ness itself never does. Property tests assert the
// equivalence over randomized shapes; do not reassociate the accumulation
// when tuning.
//
// The Householder QR apply (qr.go) is the contract's second dependent: it is
// three AddMuls, so Qᵀ·b is a function of the operand values alone — the
// serial replay's strided view of the whole matrix, the engine's gathered
// slab and a slab master's several block columns at once all get the same
// bits, whatever the stride, width, tile or rim.
//
// AddMulBlocks, a rank's whole trailing update in one call, is the third:
// it packs each distinct operand once and runs the same macro kernels on
// the same packed panels, so every block it updates gets the bits
// AddMulNumerics would give it alone — the serial replays' bits.

// Cache / register blocking parameters. gemmMR×gemmNR is the register tile;
// gemmKC×gemmNR (one packed B panel) should fit L1 and gemmMC×gemmKC (the
// packed A block) L2. The defaults favour the common 256 KB–1 MB L2 parts;
// see DESIGN.md §7 for how to re-derive them for other hardware.
const (
	gemmMR = 4
	gemmNR = 4
	gemmKC = 256
	gemmMC = 128
	gemmNC = 1024
	// gemmNRAVX is the B panel width the AVX assembly micro-kernel consumes
	// (see gemm_amd64.s); the driver packs for it when the CPU qualifies.
	gemmNRAVX = 8
	// gemmMRFMA×gemmNRFMA is the Fast-mode register tile consumed by the
	// fused AVX2+FMA micro-kernel: 6×8 is the widest tile that fits the VEX
	// register budget (12 YMM accumulators + 2 B loads + 2 broadcasts).
	gemmMRFMA = 6
	gemmNRFMA = 8
	// gemmMCFMA is the Fast-mode M blocking: the largest multiple of
	// gemmMRFMA ≤ gemmMC, so only the global bottom rim is padded.
	gemmMCFMA = 126
)

// gemmScalarFlops is the m·n·k product below which the packing overhead
// outweighs the micro-kernel's gains and AddMul routes to the scalar
// reference instead. Both paths are bit-identical, so the cutoff is purely a
// performance knob.
const gemmScalarFlops = 16 * 16 * 16

// gemmScratch is the packed path's pooled state: the packed operands — one
// product's in AddMul, every left's and right's of a batch in AddMulBlocks —
// and what a batch's products read. Pooled so that steady-state block
// updates (the engine performs thousands per run) allocate nothing; run is
// product, bound once when the pool makes the value.
type gemmScratch struct {
	a, b []float64

	alpha         float64
	lefts, rights []*Dense
	blocks        []BlockUpdate
	tile          gemmTile
	k, lsz, rsz   int
	small, fma    bool
	run           func(i int)
}

var gemmPool = sync.Pool{New: func() any {
	s := new(gemmScratch)
	s.run = s.product
	return s
}}

// ensure grows s to at least n elements, reusing capacity when present.
func ensure(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// gemmTile is what the packed path packs for and runs on. Strict packs the
// left operand into row panels of gemmMR rows in row blocks of gemmMC and
// the right into column panels gemmTileN() wide, rim panels tight, and runs
// gemmMacro. Fast (fma) packs for the 6×8 fused tile in row blocks of
// gemmMCFMA, zero-pads the rim panels to the full tile (padRim), and runs
// gemmMacroFMA.
type gemmTile struct {
	mr, mc, nr int
	fma        bool
}

func tileFor(fma bool) gemmTile {
	if fma {
		return gemmTile{mr: gemmMRFMA, mc: gemmMCFMA, nr: gemmNRFMA, fma: true}
	}
	return gemmTile{mr: gemmMR, mc: gemmMC, nr: gemmTileN()}
}

// padded is the extent n takes in panels of width w: n itself when rims are
// tight, n rounded up to w when they are padded.
func (t gemmTile) padded(n, w int) int {
	if t.fma {
		return (n + w - 1) / w * w
	}
	return n
}

// blocks is the packed path's one loop nest: it calls fn for every cache
// block of an m×k·k×n product — column slabs of gemmNC, depth panels of
// gemmKC, row blocks of t.mc — in that order, so every output accumulates
// its depth panels in increasing k. Packing a whole operand walks the same
// blocks with the other operand's extent set to 1.
func (t gemmTile) blocks(m, k, n int, fn func(ic, pc, jc, mc, kc, nc int)) {
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			for ic := 0; ic < m; ic += t.mc {
				fn(ic, pc, jc, min(t.mc, m-ic), kc, nc)
			}
		}
	}
}

// An operand is packed whole, one cache block after another: a left
// operand's block (ic, pc) at pc·M̃ + ic·kc, a right operand's block (pc, jc)
// at jc·K + pc·ñc, where M̃ and ñc are padded extents. Every block but the
// last along an axis is a whole number of panels, so the offsets are exact,
// and each block holds what packA or packB (then padRim) put there.

// leftSize and rightSize are the lengths of a packed m×k left and k×n right.
func (t gemmTile) leftSize(m, k int) int  { return t.padded(m, t.mr) * k }
func (t gemmTile) rightSize(k, n int) int { return k * t.padded(n, t.nr) }

// packLeft packs alpha·a into dst.
func (t gemmTile) packLeft(dst []float64, a *Dense, alpha float64) {
	mp := t.padded(a.rows, t.mr)
	t.blocks(a.rows, a.cols, 1, func(ic, pc, _, mc, kc, _ int) {
		blk := dst[pc*mp+ic*kc:]
		packA(blk, a, alpha, ic, pc, mc, kc, t.mr)
		if t.fma {
			padRim(blk, mc, kc, t.mr)
		}
	})
}

// packRight packs b into dst.
func (t gemmTile) packRight(dst []float64, b *Dense) {
	t.blocks(1, b.rows, b.cols, func(_, pc, jc, _, kc, nc int) {
		blk := dst[jc*b.rows+pc*t.padded(nc, t.nr):]
		packB(blk, b, pc, jc, kc, nc, t.nr)
		if t.fma {
			padRim(blk, nc, kc, t.nr)
		}
	})
}

// multiply adds the product of a packed left pa and a packed right pb, of
// inner dimension k, to c: one macro kernel per cache block.
func (t gemmTile) multiply(c *Dense, pa, pb []float64, k int) {
	mp := t.padded(c.rows, t.mr)
	t.blocks(c.rows, k, c.cols, func(ic, pc, jc, mc, kc, nc int) {
		a, b := pa[pc*mp+ic*kc:], pb[jc*k+pc*t.padded(nc, t.nr):]
		if t.fma {
			gemmMacroFMA(c, a, b, ic, jc, mc, nc, kc)
		} else {
			gemmMacro(c, a, b, ic, jc, mc, nc, kc, t.nr)
		}
	})
}

// addMulPacked is the packed GEMM behind one AddMul: pack both operands,
// multiply. Callers have already validated shapes and handled alpha == 0.
// The Fast tile (reachable only when gemmHaveFMA) is bit-identical to the
// math.FMA scalar reference addMulScalarFMA.
func (m *Dense) addMulPacked(alpha float64, a, b *Dense, t gemmTile) {
	if t.fma {
		fastDispatch.Add(1)
	}
	s := gemmPool.Get().(*gemmScratch)
	s.a = ensure(s.a, t.leftSize(a.rows, a.cols))
	s.b = ensure(s.b, t.rightSize(b.rows, b.cols))
	t.packLeft(s.a, a, alpha)
	t.packRight(s.b, b)
	t.multiply(m, s.a, s.b, a.cols)
	gemmPool.Put(s)
}

// BlockUpdate is one product of an AddMulBlocks batch:
// Out += alpha·lefts[Left]·rights[Right].
type BlockUpdate struct {
	Out         *Dense
	Left, Right int
}

// AddMulBlocks performs every update of blocks, Out += alpha·left·right,
// bit for bit as AddMulNumerics would one at a time. Every left must be m×k,
// every right k×n and every output m×n. Each left (alpha folded in) and each
// right is packed once, however many products it enters — so pass only
// operands some block uses — and then the products, each a macro-kernel
// sweep over packed panels, are split across at most workers executors
// (parallelDo). Outputs must be pairwise disjoint and overlap no operand, so
// every worker count gives the same bits. Below the scalar cutoff each
// product runs its mode's scalar reference, as AddMulNumerics does.
func AddMulBlocks(alpha float64, lefts, rights []*Dense, blocks []BlockUpdate, mode Numerics, workers int) {
	if len(blocks) == 0 {
		return
	}
	m, k := lefts[0].rows, lefts[0].cols
	n := rights[0].cols
	for _, a := range lefts {
		if a.rows != m || a.cols != k {
			panic(fmt.Sprintf("matrix: AddMulBlocks left %d×%d beside %d×%d", a.rows, a.cols, m, k))
		}
	}
	for _, b := range rights {
		if b.rows != k || b.cols != n {
			panic(fmt.Sprintf("matrix: AddMulBlocks right %d×%d beside %d×%d", b.rows, b.cols, k, n))
		}
	}
	for _, u := range blocks {
		u.Out.checkAddMul(lefts[u.Left], rights[u.Right])
	}
	if alpha == 0 {
		return
	}
	s := gemmPool.Get().(*gemmScratch)
	s.alpha, s.lefts, s.rights, s.blocks, s.k = alpha, lefts, rights, blocks, k
	s.small, s.fma = gemmSmall(m, k, n), mode == Fast && gemmHaveFMA
	if !s.small {
		s.tile = tileFor(s.fma)
		s.lsz, s.rsz = s.tile.leftSize(m, k), s.tile.rightSize(k, n)
		s.a = ensure(s.a, len(lefts)*s.lsz)
		s.b = ensure(s.b, len(rights)*s.rsz)
		for i, a := range lefts {
			s.tile.packLeft(s.a[i*s.lsz:], a, alpha)
		}
		for j, b := range rights {
			s.tile.packRight(s.b[j*s.rsz:], b)
		}
		if s.fma {
			fastDispatch.Add(int64(len(blocks)))
		}
	}
	parallelDo(workers, len(blocks), s.run)
	s.lefts, s.rights, s.blocks = nil, nil, nil
	gemmPool.Put(s)
}

// product runs the batch's block i.
func (s *gemmScratch) product(i int) {
	u := s.blocks[i]
	switch {
	case !s.small:
		s.tile.multiply(u.Out, s.a[u.Left*s.lsz:], s.b[u.Right*s.rsz:], s.k)
	case s.fma:
		u.Out.addMulScalarFMA(s.alpha, s.lefts[u.Left], s.rights[u.Right])
	default:
		u.Out.addMulScalar(s.alpha, s.lefts[u.Left], s.rights[u.Right])
	}
}

// padRim zero-pads, in place, the tight rim panel packA or packB left (extent
// n, panels of w) to width w; k runs down, so no lane is overwritten unread.
// The padded panel fits: leftSize and rightSize count padded extents.
func padRim(packed []float64, n, kc, w int) {
	if eff := n % w; eff > 0 {
		panel := packed[(n-eff)*kc:]
		for k := kc - 1; k >= 0; k-- {
			copy(panel[k*w:], panel[k*eff:(k+1)*eff])
			clear(panel[k*w+eff : (k+1)*w])
		}
	}
}

// packA packs the mc×kc block of a at (ic, pc) into row panels of mr rows
// (gemmMR for Strict, gemmMRFMA for Fast), k-major within each panel, with
// alpha folded in:
//
//	dst[p·mr·kc + k·mrEff + r] = alpha · a[ic+p·mr+r, pc+k]
//
// The final panel may have mrEff < mr rows and is packed tightly (stride
// mrEff); the Fast path then pads it in place (padRim), and its zero rows
// only ever reach temporary-tile rows that are discarded, never a real output.
func packA(dst []float64, a *Dense, alpha float64, ic, pc, mc, kc, mr int) {
	off := 0
	for p := 0; p < mc; p += mr {
		mrEff := min(mr, mc-p)
		for r := 0; r < mrEff; r++ {
			src := a.data[(ic+p+r)*a.stride+pc : (ic+p+r)*a.stride+pc+kc]
			q := off + r
			for k := 0; k < kc; k++ {
				dst[q] = alpha * src[k]
				q += mrEff
			}
		}
		off += mrEff * kc
	}
}

// packB packs the kc×nc block of b at (pc, jc) into column panels of nr
// columns, k-major within each panel:
//
//	dst[p·nr·kc + k·nrEff + c] = b[pc+k, jc+p·nr+c]
//
// The final panel may have nrEff < nr columns and is packed tightly.
func packB(dst []float64, b *Dense, pc, jc, kc, nc, nr int) {
	off := 0
	for p := 0; p < nc; p += nr {
		nrEff := min(nr, nc-p)
		for k := 0; k < kc; k++ {
			src := b.data[(pc+k)*b.stride+jc+p : (pc+k)*b.stride+jc+p+nrEff]
			copy(dst[off+k*nrEff:off+(k+1)*nrEff], src)
		}
		off += nrEff * kc
	}
}

// gemmMacro sweeps the register tiles of one packed (mc×kc)·(kc×nc) block
// product into c at (ic, jc). Panel offsets are ip·kc / jp·kc because every
// panel before a full-size boundary is full-size. Full 4×8 tiles dispatch to
// the AVX assembly micro-kernel when available; a tight-packed 4-wide rim
// panel has exactly the generic tile's layout, so it reuses gemmMicro4x4,
// and everything else takes the variable-size edge kernel. All three are
// bit-identical.
func gemmMacro(c *Dense, packedA, packedB []float64, ic, jc, mc, nc, kc, nr int) {
	for jp := 0; jp < nc; jp += nr {
		nrEff := min(nr, nc-jp)
		pb := packedB[jp*kc:]
		for ip := 0; ip < mc; ip += gemmMR {
			mrEff := min(gemmMR, mc-ip)
			pa := packedA[ip*kc:]
			switch {
			case gemmHaveAVX && mrEff == gemmMR && nrEff == gemmNRAVX:
				gemmMicroAVX4x8(&c.data[(ic+ip)*c.stride+jc+jp], c.stride, &pa[0], &pb[0], kc)
			case mrEff == gemmMR && nrEff == gemmNR:
				gemmMicro4x4(c, ic+ip, jc+jp, pa, pb, kc)
			default:
				gemmMicroEdge(c, ic+ip, jc+jp, mrEff, nrEff, pa, pb, kc)
			}
		}
	}
}

// gemmMicro4x4 is the full-size register tile: sixteen accumulators live
// across the k loop, loaded from and stored to C exactly once. Per k
// iteration it performs 16 multiply–adds against 8 contiguous loads.
func gemmMicro4x4(c *Dense, i0, j0 int, pa, pb []float64, kc int) {
	r0 := c.data[(i0+0)*c.stride+j0 : (i0+0)*c.stride+j0+4]
	r1 := c.data[(i0+1)*c.stride+j0 : (i0+1)*c.stride+j0+4]
	r2 := c.data[(i0+2)*c.stride+j0 : (i0+2)*c.stride+j0+4]
	r3 := c.data[(i0+3)*c.stride+j0 : (i0+3)*c.stride+j0+4]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
	c30, c31, c32, c33 := r3[0], r3[1], r3[2], r3[3]
	pa = pa[: 4*kc : 4*kc]
	pb = pb[: 4*kc : 4*kc]
	for k := 0; k < kc; k++ {
		av := pa[4*k : 4*k+4 : 4*k+4]
		bv := pb[4*k : 4*k+4 : 4*k+4]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// gemmMacroFMA is the Fast-mode macro kernel over padded panels: a full 6×8
// tile updates C in place, a rim tile a temporary tile whose real mrEff×nrEff
// part alone is loaded from and stored to C, so padding never reaches C.
func gemmMacroFMA(c *Dense, packedA, packedB []float64, ic, jc, mc, nc, kc int) {
	var tile [gemmMRFMA * gemmNRFMA]float64
	for jp := 0; jp < nc; jp += gemmNRFMA {
		nrEff := min(gemmNRFMA, nc-jp)
		pb := packedB[jp*kc:]
		for ip := 0; ip < mc; ip += gemmMRFMA {
			mrEff := min(gemmMRFMA, mc-ip)
			pa := packedA[ip*kc:]
			c0 := (ic+ip)*c.stride + jc + jp
			if mrEff == gemmMRFMA && nrEff == gemmNRFMA {
				gemmMicroFMA6x8(&c.data[c0], c.stride, &pa[0], &pb[0], kc)
				continue
			}
			for r := 0; r < mrEff; r++ {
				copy(tile[r*gemmNRFMA:r*gemmNRFMA+nrEff], c.data[c0+r*c.stride:])
			}
			gemmMicroFMA6x8(&tile[0], gemmNRFMA, &pa[0], &pb[0], kc)
			for r := 0; r < mrEff; r++ {
				copy(c.data[c0+r*c.stride:c0+r*c.stride+nrEff], tile[r*gemmNRFMA:])
			}
		}
	}
}

// gemmMicroEdge handles partial tiles at the right and bottom rims: same
// accumulation order, variable tile size, accumulators initialized from C.
func gemmMicroEdge(c *Dense, i0, j0, mrEff, nrEff int, pa, pb []float64, kc int) {
	for r := 0; r < mrEff; r++ {
		crow := c.data[(i0+r)*c.stride+j0 : (i0+r)*c.stride+j0+nrEff]
		for cc := 0; cc < nrEff; cc++ {
			acc := crow[cc]
			q := r
			w := cc
			for k := 0; k < kc; k++ {
				acc += pa[q] * pb[w]
				q += mrEff
				w += nrEff
			}
			crow[cc] = acc
		}
	}
}

// AddMulScalar is the reference GEMM: m += alpha·a·b as three nested loops
// in ikj order, accumulating each output element in increasing k. It is the
// semantics the packed kernel is tested against bit for bit, and stays
// selectable for debugging and benchmarking. alpha == 0 is a no-op (BLAS
// convention: the product is not formed, so NaN/Inf in a or b do not
// propagate); for nonzero alpha every product participates — 0·NaN is NaN.
func (m *Dense) AddMulScalar(alpha float64, a, b *Dense) {
	m.checkAddMul(a, b)
	if alpha == 0 {
		return
	}
	m.addMulScalar(alpha, a, b)
}

func (m *Dense) addMulScalar(alpha float64, a, b *Dense) {
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.stride : i*a.stride+a.cols]
		mrow := m.data[i*m.stride : i*m.stride+m.cols]
		for k, av := range arow {
			s := alpha * av
			brow := b.data[k*b.stride : k*b.stride+b.cols]
			for j, bv := range brow {
				mrow[j] += s * bv
			}
		}
	}
}

// AddMulScalarFMA is the Fast-mode reference GEMM: the same ikj loop nest
// and increasing-k accumulation as AddMulScalar, with each multiply-add
// fused through math.FMA. On AVX2+FMA hardware the packed Fast path is
// bit-identical to this reference (the property tests assert it); it is
// what "one rounding per multiply-add" means operationally. The alpha·A
// scaling remains a separate rounding, exactly as the packing step rounds
// it.
func (m *Dense) AddMulScalarFMA(alpha float64, a, b *Dense) {
	m.checkAddMul(a, b)
	if alpha == 0 {
		return
	}
	m.addMulScalarFMA(alpha, a, b)
}

func (m *Dense) addMulScalarFMA(alpha float64, a, b *Dense) {
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.stride : i*a.stride+a.cols]
		mrow := m.data[i*m.stride : i*m.stride+m.cols]
		for k, av := range arow {
			s := alpha * av
			brow := b.data[k*b.stride : k*b.stride+b.cols]
			for j, bv := range brow {
				mrow[j] = math.FMA(s, bv, mrow[j])
			}
		}
	}
}

func (m *Dense) checkAddMul(a, b *Dense) {
	if a.cols != b.rows || m.rows != a.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: AddMul %d×%d += %d×%d * %d×%d",
			m.rows, m.cols, a.rows, a.cols, b.rows, b.cols))
	}
}

// addMulDispatch routes a shape-checked, alpha≠0 update to the scalar or
// packed path by problem size.
func (m *Dense) addMulDispatch(alpha float64, a, b *Dense) {
	m.addMulDispatchMode(alpha, a, b, Strict)
}

// addMulDispatchMode is addMulDispatch under an explicit numerics contract.
// In Fast mode on FMA hardware both the small-size and the packed arm fuse
// (scalar FMA reference below the cutoff, packed 6×8 kernel above), so the
// whole Fast path is bit-identical to AddMulScalarFMA; elsewhere Fast is
// Strict.
func (m *Dense) addMulDispatchMode(alpha float64, a, b *Dense, mode Numerics) {
	fma := mode == Fast && gemmHaveFMA
	switch {
	case !gemmSmall(a.rows, a.cols, b.cols):
		m.addMulPacked(alpha, a, b, tileFor(fma))
	case fma:
		m.addMulScalarFMA(alpha, a, b)
	default:
		m.addMulScalar(alpha, a, b)
	}
}

// gemmSmall reports whether an m×k·k×n product is under the packing cutoff.
func gemmSmall(m, k, n int) bool {
	return m*k*n <= gemmScalarFlops || k < gemmNR
}
