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
//	    for ic over M in steps of mc        packed alpha·A(ic:ic+mc, pc:pc+kc)
//	      macro kernel: mr×nr register tiles over the packed panels
//
// A is packed into row panels of mr rows (k-major, so the micro-kernel
// streams it sequentially) with alpha folded in during packing; B is packed
// into column panels of nr columns; rim panels are zero-padded to the full
// tile. The packed A block (mc×kc) is sized for L2, one packed B column
// panel (kc×nr) for L1. mr, nr and mc are the register tile's, one of five
// (gemmTile, tileFor). Both operands are packed whole, block by block in
// this order, before the macro kernels run, so one packing serves every
// product an operand enters (AddMulBlocks).
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
// three AddMuls per compact-WY chunk, so Qᵀ·b is a function of the operand
// values alone, whatever the stride, width, tile or rim. The engine's
// chained apply rests on it: W = Vᵀ·B accumulated block row by block row
// down a block column's owners, each owner adding its rows onto the W it
// received in increasing row order, is the replay's single product's
// accumulation cut into pieces, and Tᵀ·W and B_i −= V_i·(Tᵀ·W) split that
// product's rows and columns — so every owner's blocks get the serial
// replay's bits.
//
// AddMulBlocks, a rank's whole trailing update in one call, is the third:
// it packs each distinct operand once and runs the same macro kernels on
// the same packed panels, so every block it updates gets the bits
// AddMulNumerics would give it alone — the serial replays' bits.

// Cache blocking parameters. gemmKC×nr (one packed B panel) should fit L1
// and mc×gemmKC (the packed A block) L2; the register tile mr×nr and its
// row block mc are the tile's (gemmTile). The defaults favour the common
// 256 KB–2 MB L2 parts; see DESIGN.md §7 for how to re-derive them for
// other hardware.
const (
	gemmKC = 256
	gemmMC = 128
	gemmNC = 1024
	// gemmNR is the narrowest tile's width: a product of inner dimension
	// below it takes the scalar reference (gemmSmall).
	gemmNR = 4
	// gemmTileMax is the largest tile's mr·nr, the temporary tile's size.
	gemmTileMax = 8 * 16
	// gemmMCFMA is the 6×8 tile's row block: the largest multiple of 6 ≤
	// gemmMC.
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

// microKernel names a register tile's micro-kernel.
type microKernel uint8

const (
	microGo4x4 microKernel = iota
	microAVX4x8
	microFMA6x8
	microZMM8x16
	microZMMFMA8x16
)

// gemmTile is what the packed path packs for and runs on: the left operand
// in row panels of mr rows and row blocks of mc (a multiple of mr), the
// right in column panels of nr columns, both with their rim panels
// zero-padded to the full tile, and kernel on every mr×nr tile. fma marks
// the Fast contract's fused kernels.
type gemmTile struct {
	name       string
	kernel     microKernel
	mr, nr, mc int
	fma        bool
}

// The five tiles. Each micro-kernel holds its tile of C in registers
// across the whole k loop and performs, per lane, the operation sequence
// of its contract's scalar reference: AddMulScalar for the unfused ones,
// AddMulScalarFMA for the fused ones.
var (
	tileGo     = gemmTile{name: "go 4×4", kernel: microGo4x4, mr: 4, nr: 4, mc: gemmMC}
	tileAVX    = gemmTile{name: "avx 4×8", kernel: microAVX4x8, mr: 4, nr: 8, mc: gemmMC}
	tileFMA    = gemmTile{name: "fma 6×8", kernel: microFMA6x8, mr: 6, nr: 8, mc: gemmMCFMA, fma: true}
	tileZMM    = gemmTile{name: "zmm 8×16", kernel: microZMM8x16, mr: 8, nr: 16, mc: gemmMC}
	tileZMMFMA = gemmTile{name: "zmm-fma 8×16", kernel: microZMMFMA8x16, mr: 8, nr: 16, mc: gemmMC, fma: true}
)

// tileFor is the packed path's one tile choice, in order: the 8×16 ZMM
// tiles where AVX-512 runs, the 6×8 fused or 4×8 AVX YMM tile where AVX2
// or AVX does, the pure-Go tile elsewhere. fma asks for the Fast
// contract's fused kernel; callers pass it only when gemmHaveFMA.
func tileFor(fma bool) gemmTile {
	switch {
	case gemmHaveAVX512 && fma:
		return tileZMMFMA
	case gemmHaveAVX512:
		return tileZMM
	case fma:
		return tileFMA
	case gemmHaveAVX:
		return tileAVX
	}
	return tileGo
}

// roundUp is n rounded up to a multiple of w: the extent n takes in padded
// panels of width w.
func roundUp(n, w int) int { return (n + w - 1) / w * w }

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
// last along an axis is a whole number of panels, so the offsets are exact.

// leftSize and rightSize are the lengths of a packed m×k left and k×n right.
func (t gemmTile) leftSize(m, k int) int  { return roundUp(m, t.mr) * k }
func (t gemmTile) rightSize(k, n int) int { return k * roundUp(n, t.nr) }

// packLeft packs alpha·a into dst.
func (t gemmTile) packLeft(dst []float64, a *Dense, alpha float64) {
	mp := roundUp(a.rows, t.mr)
	t.blocks(a.rows, a.cols, 1, func(ic, pc, _, mc, kc, _ int) {
		packA(dst[pc*mp+ic*kc:], a, alpha, ic, pc, mc, kc, t.mr)
	})
}

// packRight packs b into dst.
func (t gemmTile) packRight(dst []float64, b *Dense) {
	t.blocks(1, b.rows, b.cols, func(_, pc, jc, _, kc, nc int) {
		packB(dst[jc*b.rows+pc*roundUp(nc, t.nr):], b, pc, jc, kc, nc, t.nr)
	})
}

// multiply adds the product of a packed left pa and a packed right pb, of
// inner dimension k, to c: one macro kernel per cache block.
func (t gemmTile) multiply(c *Dense, pa, pb []float64, k int) {
	mp := roundUp(c.rows, t.mr)
	t.blocks(c.rows, k, c.cols, func(ic, pc, jc, mc, kc, nc int) {
		t.macro(c, pa[pc*mp+ic*kc:], pb[jc*k+pc*roundUp(nc, t.nr):], ic, jc, mc, nc, kc)
	})
}

// addMulPacked is the packed GEMM behind one AddMul: pack both operands,
// multiply. Callers have already validated shapes and handled alpha == 0.
// The fused tiles (reachable only when gemmHaveFMA) are bit-identical to
// the math.FMA scalar reference addMulScalarFMA.
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

// packA packs the mc×kc block of a at (ic, pc) into row panels of mr rows,
// k-major within each panel, with alpha folded in:
//
//	dst[p·mr·kc + k·mr + r] = alpha · a[ic+p·mr+r, pc+k]
//
// The last panel's rows past mc are zeros. k is never padded, so a zero row
// only ever reaches temporary-tile rows that are discarded, never a real
// output — even next to an Inf or NaN, where 0·Inf would be NaN.
func packA(dst []float64, a *Dense, alpha float64, ic, pc, mc, kc, mr int) {
	for p := 0; p < mc; p += mr {
		panel := dst[p*kc : (p+mr)*kc]
		mrEff := min(mr, mc-p)
		for r := 0; r < mr; r++ {
			q := r
			if r >= mrEff {
				for k := 0; k < kc; k++ {
					panel[q] = 0
					q += mr
				}
				continue
			}
			for _, v := range a.data[(ic+p+r)*a.stride+pc : (ic+p+r)*a.stride+pc+kc] {
				panel[q] = alpha * v
				q += mr
			}
		}
	}
}

// packB packs the kc×nc block of b at (pc, jc) into column panels of nr
// columns, k-major within each panel:
//
//	dst[p·nr·kc + k·nr + c] = b[pc+k, jc+p·nr+c]
//
// The last panel's columns past nc are zeros, as packA's rows are.
func packB(dst []float64, b *Dense, pc, jc, kc, nc, nr int) {
	for p := 0; p < nc; p += nr {
		panel := dst[p*kc : (p+nr)*kc]
		nrEff := min(nr, nc-p)
		for k := 0; k < kc; k++ {
			row := panel[k*nr : (k+1)*nr]
			copy(row, b.data[(pc+k)*b.stride+jc+p:(pc+k)*b.stride+jc+p+nrEff])
			for c := nrEff; c < nr; c++ {
				row[c] = 0
			}
		}
	}
}

// macro sweeps the register tiles of one packed (mc×kc)·(kc×nc) block
// product into c at (ic, jc). Panel offsets are ip·kc / jp·kc because every
// panel is full-size. A full tile updates C in place; a rim tile runs on a
// temporary tile whose real mrEff×nrEff part alone is loaded from and
// stored to C, so the padding never reaches C.
func (t gemmTile) macro(c *Dense, packedA, packedB []float64, ic, jc, mc, nc, kc int) {
	var tmp [gemmTileMax]float64
	for jp := 0; jp < nc; jp += t.nr {
		nrEff := min(t.nr, nc-jp)
		pb := packedB[jp*kc:]
		for ip := 0; ip < mc; ip += t.mr {
			mrEff := min(t.mr, mc-ip)
			pa := packedA[ip*kc:]
			c0 := (ic+ip)*c.stride + jc + jp
			if mrEff == t.mr && nrEff == t.nr {
				t.micro(c.data[c0:], c.stride, pa, pb, kc)
				continue
			}
			for r := 0; r < mrEff; r++ {
				copy(tmp[r*t.nr:r*t.nr+nrEff], c.data[c0+r*c.stride:])
			}
			t.micro(tmp[:], t.nr, pa, pb, kc)
			for r := 0; r < mrEff; r++ {
				copy(c.data[c0+r*c.stride:c0+r*c.stride+nrEff], tmp[r*t.nr:])
			}
		}
	}
}

// micro runs t's micro-kernel on the full tile at c[0] (row stride stride)
// over the packed panels pa and pb, kc deep. It is a switch of direct
// calls, not a func value in gemmTile: through an indirect call the
// macro loop's temporary tile would escape to the heap.
func (t gemmTile) micro(c []float64, stride int, pa, pb []float64, kc int) {
	switch t.kernel {
	case microZMM8x16:
		gemmMicroZMM8x16(&c[0], stride, &pa[0], &pb[0], kc)
	case microZMMFMA8x16:
		gemmMicroZMMFMA8x16(&c[0], stride, &pa[0], &pb[0], kc)
	case microFMA6x8:
		gemmMicroFMA6x8(&c[0], stride, &pa[0], &pb[0], kc)
	case microAVX4x8:
		gemmMicroAVX4x8(&c[0], stride, &pa[0], &pb[0], kc)
	default:
		gemmMicro4x4(c, stride, pa, pb, kc)
	}
}

// gemmMicro4x4 is the pure-Go register tile: sixteen accumulators live
// across the k loop, loaded from and stored to C exactly once. Per k
// iteration it performs 16 multiply–adds against 8 contiguous loads.
func gemmMicro4x4(c []float64, stride int, pa, pb []float64, kc int) {
	r0 := c[0:4:4]
	r1 := c[stride : stride+4 : stride+4]
	r2 := c[2*stride : 2*stride+4 : 2*stride+4]
	r3 := c[3*stride : 3*stride+4 : 3*stride+4]
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
// (scalar FMA reference below the cutoff, a fused packed tile above), so the
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
