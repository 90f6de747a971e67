package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

//
// This file compares implementations of the Householder apply, of the
// tall-panel factor, of the GEMM's register tiles and their rims, of a
// step's trailing update and of the two panel solves side by side; qr.go,
// gemm.go and ops.go ship the winners, the others live here only —
// qtmulColumns, factorQRAlt and solveUpperRightRows also as the references
// qr_test.go and ops_test.go check the shipped code against, as
// AddMulScalar is for GEMM.
//
//	go test ./internal/matrix -run '^$' -bench 'DevelQTMul|DevelPanelQR|DevelTiles|DevelBlockUpdate|DevelTRSM' -benchmem
//

// qtmulColumns is the apply this package had before: one reflector and one
// column of b at a time, both read at stride.
func qtmulColumns(f *QR, b *Dense) {
	m, n := f.qr.rows, f.qr.cols
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		for j := 0; j < b.cols; j++ {
			sum := b.data[k*b.stride+j]
			for i := k + 1; i < m; i++ {
				sum += f.qr.data[i*f.qr.stride+k] * b.data[i*b.stride+j]
			}
			s := f.tau[k] * sum
			b.data[k*b.stride+j] -= s
			for i := k + 1; i < m; i++ {
				b.data[i*b.stride+j] -= s * f.qr.data[i*f.qr.stride+k]
			}
		}
	}
}

// qtmulRows is qtmulColumns with the loops interchanged so b is swept along
// rows: the same operations on every element in the same order, so the same
// bits.
func qtmulRows(f *QR, b *Dense) {
	m, n := f.qr.rows, f.qr.cols
	sums := make([]float64, b.cols)
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		copy(sums, b.data[k*b.stride:k*b.stride+b.cols])
		for i := k + 1; i < m; i++ {
			vi := f.qr.data[i*f.qr.stride+k]
			for j, x := range b.data[i*b.stride : i*b.stride+b.cols] {
				sums[j] += vi * x
			}
		}
		for j := range sums {
			sums[j] *= f.tau[k]
			b.data[k*b.stride+j] -= sums[j]
		}
		for i := k + 1; i < m; i++ {
			vi := f.qr.data[i*f.qr.stride+k]
			row := b.data[i*b.stride : i*b.stride+b.cols]
			for j, s := range sums {
				row[j] -= s * vi
			}
		}
	}
}

// hypotNorm is the column norm this package had before: a math.Hypot chain,
// one serial square root and division per element.
func hypotNorm(m *Dense, i0, j int) float64 {
	normx := 0.0
	for i := i0; i < m.rows; i++ {
		normx = math.Hypot(normx, m.data[i*m.stride+j])
	}
	return normx
}

// factorQRAlt is the unblocked factorization with its two choices open: the
// column norm, and whether a reflector is applied to the later columns one
// column at a time (what this package had before, with hypotNorm) or along
// rows (what householderPanel does). The sweep direction must not change a
// bit; the norm may change the low ones.
func factorQRAlt(a *Dense, norm func(m *Dense, i0, j int) float64, alongRows bool) *QR {
	m, n := a.rows, a.cols
	qr := a.Clone()
	s := qr.stride
	tau := make([]float64, n)
	sums := make([]float64, n)
	for k := 0; k < n; k++ {
		normx := norm(qr, k, k)
		if normx == 0 {
			continue
		}
		alpha := qr.data[k*s+k]
		beta := -math.Copysign(normx, alpha)
		v0 := alpha - beta
		tau[k] = (beta - alpha) / beta
		qr.data[k*s+k] = beta
		for i := k + 1; i < m; i++ {
			qr.data[i*s+k] /= v0
		}
		if !alongRows {
			for j := k + 1; j < n; j++ {
				sum := qr.data[k*s+j]
				for i := k + 1; i < m; i++ {
					sum += qr.data[i*s+k] * qr.data[i*s+j]
				}
				sum *= tau[k]
				qr.data[k*s+j] -= sum
				for i := k + 1; i < m; i++ {
					qr.data[i*s+j] -= sum * qr.data[i*s+k]
				}
			}
			continue
		}
		w := sums[:n-k-1]
		copy(w, qr.data[k*s+k+1:k*s+n])
		for i := k + 1; i < m; i++ {
			vi := qr.data[i*s+k]
			for j, x := range qr.data[i*s+k+1 : i*s+n] {
				w[j] += vi * x
			}
		}
		for j := range w {
			w[j] *= tau[k]
			qr.data[k*s+k+1+j] -= w[j]
		}
		for i := k + 1; i < m; i++ {
			vi := qr.data[i*s+k]
			row := qr.data[i*s+k+1 : i*s+n]
			for j, sj := range w {
				row[j] -= sj * vi
			}
		}
	}
	return &QR{qr: qr, tau: tau}
}

func BenchmarkDevelQTMul(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{32, 288, 576} {
		for _, nc := range []int{32, 288} {
			f := FactorQR(Random(m, n, rng))
			rhs := Random(m, nc, rng)
			want := rhs.Clone()
			qtmulColumns(f, want)
			rows := rhs.Clone()
			qtmulRows(f, rows)
			if !rows.Equal(want) {
				b.Fatalf("m=%d nc=%d: row-major interchange changed bits", m, nc)
			}
			// The engine's per-block-column apply: nc/n contiguous slabs.
			slabs := make([]*Dense, nc/n)
			for i := range slabs {
				slabs[i] = rhs.Slice(0, m, i*n, (i+1)*n).Clone()
			}
			perSlab := func(apply func(*QR, *Dense)) func() {
				return func() {
					for _, s := range slabs {
						apply(f, s)
					}
				}
			}
			wide := rhs.Clone()
			for _, alt := range []struct {
				name string
				run  func()
			}{
				{"columns", perSlab(qtmulColumns)},
				{"rows", perSlab(qtmulRows)},
				{"wy-reformed", perSlab(func(f *QR, s *Dense) { QRFromPacked(f.qr, f.tau).QTMul(s) })},
				{"wy-cached", perSlab((*QR).QTMul)},
				{"wy-cached-wide", func() { f.QTMul(wide) }},
			} {
				b.Run(fmt.Sprintf("m=%d/nc=%d/%s", m, nc, alt.name), func(b *testing.B) {
					alt.run() // form T, size the pooled workspace
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						alt.run()
					}
					// Applying n reflectors of mean length m−n/2 to nc columns.
					flops := 4 * float64(n) * float64(nc) * (float64(m) - float64(n)/2)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
				})
			}
		}
	}
}

func BenchmarkDevelPanelQR(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(18))
	for _, m := range []int{32, 288, 576} {
		a := Random(m, n, rng)
		today := factorQRAlt(a, hypotNorm, false)
		if rows := factorQRAlt(a, hypotNorm, true); !rows.qr.Equal(today.qr) {
			b.Fatalf("m=%d: row-major interchange changed bits", m)
		}
		if got, want := FactorQR(a), factorQRAlt(a, (*Dense).colNorm, true); !got.qr.Equal(want.qr) {
			b.Fatalf("m=%d: FactorQR is not the rows + two-pass alternative", m)
		}
		for _, alt := range []struct {
			name string
			run  func() *QR
		}{
			{"columns-hypot", func() *QR { return factorQRAlt(a, hypotNorm, false) }},
			{"rows-hypot", func() *QR { return factorQRAlt(a, hypotNorm, true) }},
			{"rows-twopass", func() *QR { return FactorQR(a) }},
		} {
			b.Run(fmt.Sprintf("m=%d/%s", m, alt.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					develSink = alt.run()
				}
			})
		}
	}
}

var develSink *QR

// addMulPackedTight is the packed path with tight rims, as the Strict tiles
// ran before every tile padded its rims: rim panels packed tightly
// (packTightA, packTightB), full tiles on t's micro-kernel, a 4×4 rim tile
// on the Go kernel (a tight 4-wide panel has its layout), every other
// partial tile on the scalar edge kernel of t's contract.
func (m *Dense) addMulPackedTight(alpha float64, a, b *Dense, t gemmTile) {
	bufs := gemmPool.Get().(*gemmScratch)
	bufs.a = ensure(bufs.a, gemmMC*gemmKC)
	bufs.b = ensure(bufs.b, gemmKC*gemmNC)
	bigM, bigK, bigN := a.rows, a.cols, b.cols
	for jc := 0; jc < bigN; jc += gemmNC {
		nc := min(gemmNC, bigN-jc)
		for pc := 0; pc < bigK; pc += gemmKC {
			kc := min(gemmKC, bigK-pc)
			packTightB(bufs.b, b, pc, jc, kc, nc, t.nr)
			for ic := 0; ic < bigM; ic += t.mc {
				mc := min(t.mc, bigM-ic)
				packTightA(bufs.a, a, alpha, ic, pc, mc, kc, t.mr)
				for jp := 0; jp < nc; jp += t.nr {
					nrEff := min(t.nr, nc-jp)
					pb := bufs.b[jp*kc:]
					for ip := 0; ip < mc; ip += t.mr {
						mrEff := min(t.mr, mc-ip)
						pa := bufs.a[ip*kc:]
						c0 := (ic+ip)*m.stride + jc + jp
						switch {
						case mrEff == t.mr && nrEff == t.nr:
							t.micro(m.data[c0:], m.stride, pa, pb, kc)
						case !t.fma && mrEff == 4 && nrEff == 4:
							gemmMicro4x4(m.data[c0:], m.stride, pa, pb, kc)
						case t.fma:
							gemmMicroEdgeFMA(m, ic+ip, jc+jp, mrEff, nrEff, pa, pb, kc)
						default:
							gemmMicroEdge(m, ic+ip, jc+jp, mrEff, nrEff, pa, pb, kc)
						}
					}
				}
			}
		}
	}
	gemmPool.Put(bufs)
}

// packTightA is packA with the last panel packed tightly: mrEff rows, at
// stride mrEff.
func packTightA(dst []float64, a *Dense, alpha float64, ic, pc, mc, kc, mr int) {
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

// packTightB is packB with the last panel packed tightly: nrEff columns,
// at stride nrEff.
func packTightB(dst []float64, b *Dense, pc, jc, kc, nc, nr int) {
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

// gemmMicroEdge is the scalar rim kernel of the tight Strict rims: the
// tile's operation sequence at any size, over tightly packed panels.
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

// gemmMicroEdgeFMA is gemmMicroEdge with the multiply-add fused through
// math.FMA.
func gemmMicroEdgeFMA(c *Dense, i0, j0, mrEff, nrEff int, pa, pb []float64, kc int) {
	for r := 0; r < mrEff; r++ {
		crow := c.data[(i0+r)*c.stride+j0 : (i0+r)*c.stride+j0+nrEff]
		for cc := 0; cc < nrEff; cc++ {
			acc := crow[cc]
			q := r
			w := cc
			for k := 0; k < kc; k++ {
				acc = math.FMA(pa[q], pb[w], acc)
				q += mrEff
				w += nrEff
			}
			crow[cc] = acc
		}
	}
}

// BenchmarkDevelTiles times one n×n block update on every tile the CPU
// runs, each with tight rims (addMulPackedTight) and with padded rims
// (addMulPacked, the shipped policy), at the engine's block sizes 20, 32,
// 40 and 64 — 20 and 40 leave rims on every tile, 32 and 64 only on the
// 6×8 one — and at one 256 slab. Every row is asserted bit-identical to its
// contract's scalar reference before it is timed. tileFor ships, per
// contract, the widest tile the CPU runs, on padded rims.
func BenchmarkDevelTiles(b *testing.B) {
	for _, n := range []int{20, 32, 40, 64, 256} {
		x, y := benchMatrices(n)
		c := New(n, n)
		flops := 2 * cube(n)
		for _, tile := range cpuTiles() {
			want := c.Clone()
			if tile.fma {
				want.AddMulScalarFMA(1, x, y)
			} else {
				want.AddMulScalar(1, x, y)
			}
			tight, padded := c.Clone(), c.Clone()
			tight.addMulPackedTight(1, x, y, tile)
			padded.addMulPacked(1, x, y, tile)
			if !bitIdentical(tight, want) || !bitIdentical(padded, want) {
				b.Fatalf("n=%d %s: not bit-identical to the scalar reference", n, tile.name)
			}
			name := strings.ReplaceAll(tile.name, " ", "-")
			benchKernel(b, name+"/tight", n, flops, func() error { c.addMulPackedTight(1, x, y, tile); return nil })
			benchKernel(b, name+"/padded", n, flops, func() error { c.addMulPacked(1, x, y, tile); return nil })
		}
	}
}

// BenchmarkDevelBlockUpdate times one step's trailing update over a 16×16
// set of r×r blocks two ways: per-block, AddMulNumerics on every block,
// which packs both operands of all 256 products (the loop the engine ran
// before), and batched, one AddMulBlocks call, which packs each of the 16
// lefts and 16 rights once. The two are asserted Equal before either is
// timed.
func BenchmarkDevelBlockUpdate(b *testing.B) {
	const nb = 16
	for _, r := range []int{32, 64} {
		u, c := newStepUpdate(rand.New(rand.NewSource(32)), nb, r, r)
		start := c.Clone()
		flops := 2 * cube(r) * nb * nb
		for _, mode := range kernelContracts {
			perBlock := func() error {
				for i := range u.c {
					u.c[i].AddMulNumerics(1, u.a[i], u.b[i], mode)
				}
				return nil
			}
			batch := u.batch(mode, 1)
			batched := func() error { batch(); return nil }
			c.CopyFrom(start)
			perBlock()
			want := c.Clone()
			c.CopyFrom(start)
			batched()
			if !c.Equal(want) {
				b.Fatalf("r=%d %v: AddMulBlocks is not Equal to per-block AddMulNumerics", r, mode)
			}
			benchKernel(b, "per-block/"+mode.String(), r, flops, perBlock)
			benchKernel(b, "batched/"+mode.String(), r, flops, batched)
		}
	}
}

// solveUpperRightRows is the SolveUpperRight this package had before: one
// dot product per element, walking U down its column j. It is the
// reference ops_test.go holds the blocked solve to, bit for bit.
func solveUpperRightRows(m, u *Dense) {
	n := u.rows
	for r := 0; r < m.rows; r++ {
		row := m.data[r*m.stride : r*m.stride+m.cols]
		for j := 0; j < n; j++ {
			sum := row[j]
			for k := 0; k < j; k++ {
				sum -= row[k] * u.data[k*u.stride+j]
			}
			row[j] = sum / u.data[j*u.stride+j]
		}
	}
}

// solveHalving is the recursive alternative to solveBlocked: solve the
// first half of [k0,k1), apply it to the second half as one GEMM, solve
// the second half, down to blocks of at most w. Each element still takes
// its terms in increasing k, so the bits are solveBlocked's.
func solveHalving(k0, k1, w int, substitute func(k0, k1 int), update func(k0, k1, k2 int)) {
	if k1-k0 <= w {
		substitute(k0, k1)
		return
	}
	mid := k0 + (k1-k0)/2
	solveHalving(k0, mid, w, substitute, update)
	update(k0, mid, k1)
	solveHalving(mid, k1, w, substitute, update)
}

// develAlt is one timed alternative of a devel benchmark.
type develAlt struct {
	name string
	run  func()
}

// BenchmarkDevelTRSM times the two panel solves of LU and Cholesky on one
// n×n block, n ∈ {32, 64}, every way: scalar is the loop each had before
// (the row-wise dot products of solveUpperRightRows, and
// SolveLowerUnitScalar), unblocked is the shipped substitution kernel over
// the whole triangle, blocked-wN is solveBlocked at width N, halving is
// solveHalving down to trsmWidth, and shipped is the exported solve. Every
// alternative is asserted bit-identical to scalar before it is timed. Each
// operation restores the right-hand side first (n² moves against n³
// flops).
func BenchmarkDevelTRSM(b *testing.B) {
	for _, n := range []int{32, 64} {
		rng := rand.New(rand.NewSource(38))
		u := RandomWellConditioned(n, rng)
		rhs := Random(n, n, rng)
		x := New(n, n)
		for _, solve := range []struct {
			name            string
			scalar, shipped func()
			substitute      func(k0, k1 int)
			update          func(k0, k1, k2 int)
		}{
			{
				name:       "upper-right",
				scalar:     func() { solveUpperRightRows(x, u) },
				shipped:    func() { x.SolveUpperRight(u) },
				substitute: func(k0, k1 int) { x.solveUpperRightRange(u, k0, k1) },
				update: func(k0, k1, k2 int) {
					c, xl, t := x.view(0, n, k1, k2), x.view(0, n, k0, k1), u.view(k0, k1, k1, k2)
					c.addMulDispatch(-1, &xl, &t)
				},
			},
			{
				name:       "lower-unit",
				scalar:     func() { u.SolveLowerUnitScalar(x) },
				shipped:    func() { u.SolveLowerUnit(x) },
				substitute: func(k0, k1 int) { u.solveLowerUnitRange(x, k0, k1) },
				update: func(k0, k1, k2 int) {
					c, l, xl := x.view(k1, k2, 0, n), u.view(k1, k2, k0, k1), x.view(k0, k1, 0, n)
					c.addMulDispatch(-1, &l, &xl)
				},
			},
		} {
			alts := []develAlt{
				{"scalar", solve.scalar},
				{"unblocked", func() { solve.substitute(0, n) }},
			}
			for _, w := range []int{8, 16, 32} {
				alts = append(alts, develAlt{fmt.Sprintf("blocked-w%d", w), func() { solveBlocked(n, w, solve.substitute, solve.update) }})
			}
			alts = append(alts,
				develAlt{"halving", func() { solveHalving(0, n, trsmWidth, solve.substitute, solve.update) }},
				develAlt{"shipped", solve.shipped})
			x.CopyFrom(rhs)
			solve.scalar()
			want := x.Clone()
			for _, alt := range alts {
				x.CopyFrom(rhs)
				alt.run()
				if !x.Equal(want) {
					b.Fatalf("%s n=%d: %s is not bit-identical to scalar", solve.name, n, alt.name)
				}
				benchKernel(b, solve.name+"/"+alt.name, n, cube(n), func() error { x.CopyFrom(rhs); alt.run(); return nil })
			}
		}
	}
}
