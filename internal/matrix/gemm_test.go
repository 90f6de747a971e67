package matrix

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// bitIdentical compares two matrices by the exact bit patterns of their
// elements — signed zeros and infinities count, strictly stronger than
// Equal. The one exception is NaN: when two different NaNs meet in an add,
// x86 returns the first source operand's payload, and which operand the
// compiler emits first is codegen-dependent — so NaN-ness is deterministic
// across kernels but the payload is not, and any NaN matches any NaN here
// (the documented contract in gemm.go).
func bitIdentical(a, b *Dense) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			x, y := a.At(i, j), b.At(i, j)
			if math.IsNaN(x) || math.IsNaN(y) {
				if !(math.IsNaN(x) && math.IsNaN(y)) {
					return false
				}
				continue
			}
			if math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

// gemmTestDims is the dimension distribution for the property tests: every
// boundary the packed path cares about — degenerate 1, just under / at /
// over each register tile's mr and nr (4, 6, 8, 16), and sizes crossing the
// gemmMC row blocks and gemmKC depth panels.
var gemmTestDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 17, 23, 31, 33, 47, 63, 130, 260}

func pickDim(rng *rand.Rand) int {
	return gemmTestDims[rng.Intn(len(gemmTestDims))]
}

// randomOperand builds an m×n matrix, optionally as a strided interior view
// of a larger allocation (stride > cols), optionally seeded with NaN/Inf/−0
// specials. The packed kernel must treat all of these identically to the
// scalar reference.
func randomOperand(rng *rand.Rand, m, n int, strided, specials bool) *Dense {
	var d *Dense
	if strided {
		big := New(m+2, n+3)
		for i := 0; i < m+2; i++ {
			for j := 0; j < n+3; j++ {
				big.Set(i, j, rng.NormFloat64())
			}
		}
		d = big.Slice(1, m+1, 2, n+2)
	} else {
		d = New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	if specials {
		vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
		for t := 0; t < 1+m*n/16; t++ {
			d.Set(rng.Intn(m), rng.Intn(n), vals[rng.Intn(len(vals))])
		}
	}
	return d
}

// TestGemmPackedMatchesScalarProperty is the core determinism contract:
// across 220 randomized shapes — non-square, 1×n and n×1 edge blocks,
// strided Slice views, NaN/Inf/−0 payloads, varying alpha — every tile the
// CPU runs must be bit-identical to its contract's scalar reference, the
// ikj loop (AddMulScalar) for the unfused tiles and its math.FMA twin
// (AddMulScalarFMA) for the fused ones. It calls addMulPacked directly so
// even shapes below the dispatch cutoff exercise the packed path.
func TestGemmPackedMatchesScalarProperty(t *testing.T) {
	for _, tile := range cpuTiles() {
		rng := rand.New(rand.NewSource(701))
		alphas := []float64{1, -1, 0.5, -2.25, 1e-30, 3}
		for it := 0; it < 220; it++ {
			m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
			// Keep the occasional triple-large case affordable.
			if m*k*n > 1<<22 {
				n = 8
			}
			strided := it%3 == 0
			specials := it%7 == 0
			a := randomOperand(rng, m, k, strided, specials)
			b := randomOperand(rng, k, n, strided, specials)
			c0 := randomOperand(rng, m, n, strided, false)
			alpha := alphas[rng.Intn(len(alphas))]

			want := c0.Clone()
			if tile.fma {
				want.addMulScalarFMA(alpha, a, b)
			} else {
				want.addMulScalar(alpha, a, b)
			}
			got := c0.Clone()
			got.addMulPacked(alpha, a, b, tile)
			if !bitIdentical(got, want) {
				t.Fatalf("%s it=%d m=%d k=%d n=%d alpha=%v strided=%v specials=%v: packed differs from scalar",
					tile.name, it, m, k, n, alpha, strided, specials)
			}
		}
	}
}

// cpuTiles lists every tile this CPU runs, by the flags tileFor reads.
func cpuTiles() []gemmTile {
	tiles := []gemmTile{tileGo}
	if gemmHaveAVX {
		tiles = append(tiles, tileAVX)
	}
	if gemmHaveFMA {
		tiles = append(tiles, tileFMA)
	}
	if gemmHaveAVX512 {
		tiles = append(tiles, tileZMM)
		if gemmHaveFMA {
			tiles = append(tiles, tileZMMFMA)
		}
	}
	return tiles
}

// tileForce is a named way to force the tile choice until a test ends.
type tileForce struct {
	name  string
	force func(*testing.T)
}

// tileForces are the ways a test forces the tile choice, each run as an
// ordinary subtest. Between them tileFor reaches every tile the CPU runs:
// the CPU's own, the YMM tiles of a CPU without AVX-512, the pure-Go tile
// of a CPU without AVX, and Fast on the Strict path as without AVX2+FMA.
var tileForces = []tileForce{
	{"cpu tile", func(*testing.T) {}},
	{"ymm tile", forceNoAVX512},
	{"go tile", forceGoTile},
	{"no-fma tile", forceNoFMA},
}

// strictTiles runs body under every Strict tile the CPU runs: the first
// three forces.
func strictTiles(t *testing.T, body func(t *testing.T)) {
	runForces(t, tileForces[:3], body)
}

// allTiles runs body under every force, so under every register tile a
// CPU may take.
func allTiles(t *testing.T, body func(t *testing.T)) {
	runForces(t, tileForces, body)
}

func runForces(t *testing.T, forces []tileForce, body func(t *testing.T)) {
	for _, f := range forces {
		t.Run(f.name, func(t *testing.T) {
			f.force(t)
			body(t)
		})
	}
}

// TestTileChoice pins the tile tileFor picks for each contract under each
// force, against the CPU's own flags, and logs the CPU's tile set: with -v
// a runner's log shows which tiles its suite exercised, and a ZMM suite
// that skipped for want of AVX-512 shows as such.
func TestTileChoice(t *testing.T) {
	avx, fma, avx512 := gemmHaveAVX, gemmHaveFMA, gemmHaveAVX512
	t.Logf("CPU: AVX %v, AVX2+FMA %v, AVX-512F %v; tiles: %s", avx, fma, avx512, tileNames(cpuTiles()))
	ymm, ymmFast := tileGo, tileGo
	if avx {
		ymm, ymmFast = tileAVX, tileAVX
	}
	goFast := tileGo
	if fma {
		ymmFast, goFast = tileFMA, tileFMA
	}
	cpu, cpuFast := ymm, ymmFast
	if avx512 {
		cpu, cpuFast = tileZMM, tileZMM
		if fma {
			cpuFast = tileZMMFMA
		}
	}
	want := [][2]gemmTile{{cpu, cpuFast}, {ymm, ymmFast}, {tileGo, goFast}, {cpu, cpu}} // tileForces' order
	for i, f := range tileForces {
		t.Run(f.name, func(t *testing.T) {
			f.force(t)
			strict, fast := tileFor(false), tileFor(gemmHaveFMA)
			if strict.name != want[i][0].name || fast.name != want[i][1].name {
				t.Fatalf("Strict runs %s and Fast %s, want %s and %s", strict.name, fast.name, want[i][0].name, want[i][1].name)
			}
			t.Logf("Strict: %s, Fast: %s", strict.name, fast.name)
		})
	}
}

func tileNames(tiles []gemmTile) string {
	names := make([]string, len(tiles))
	for i, t := range tiles {
		names[i] = t.name
	}
	return strings.Join(names, ", ")
}

// TestGemmMicroGoDirect exercises the pure-Go micro-kernel on exact tiles
// (checkMicroDirect).
func TestGemmMicroGoDirect(t *testing.T) { checkMicroDirect(t, tileGo) }

// checkMicroDirect runs tile's micro-kernel on one exact mr×nr tile of a
// strided C at kc ∈ {1, 7, 256}, with NaN and −0 lanes, against the
// accumulation of its contract: alpha·A is already packed, so each term is
// one rounded multiply and one rounded add, or one math.FMA.
func checkMicroDirect(t *testing.T, tile gemmTile) {
	mr, nr := tile.mr, tile.nr
	rng := rand.New(rand.NewSource(712))
	for _, kc := range []int{1, 7, 256} {
		pa := make([]float64, mr*kc)
		pb := make([]float64, nr*kc)
		for i := range pa {
			pa[i] = rng.NormFloat64()
		}
		for i := range pb {
			pb[i] = rng.NormFloat64()
		}
		pa[2] = math.NaN()
		pb[3] = math.Copysign(0, -1)
		pb[nr*(kc-1)+nr-1] = math.Copysign(0, -1)
		c := randomOperand(rng, mr, nr, true, false)
		c.Set(mr-1, nr-1, math.Copysign(0, -1))
		want := c.Clone()
		for i := 0; i < mr; i++ {
			for j := 0; j < nr; j++ {
				acc := want.At(i, j)
				for k := 0; k < kc; k++ {
					if tile.fma {
						acc = math.FMA(pa[mr*k+i], pb[nr*k+j], acc)
					} else {
						acc += pa[mr*k+i] * pb[nr*k+j]
					}
				}
				want.Set(i, j, acc)
			}
		}
		tile.micro(c.data, c.stride, pa, pb, kc)
		if !bitIdentical(c, want) {
			t.Fatalf("%s kc=%d: micro-kernel differs from the reference accumulation", tile.name, kc)
		}
	}
}

// TestAddMulBlocksMatchesPerBlock is the batched update's contract: a batch
// leaves every output bit-identical to AddMulNumerics applied block by
// block. Three lefts and two rights enter four products — left 0 and both
// rights twice — under both numerics modes, every tile and α ∈ {−1, 0.5, 0},
// at block orders on both sides of the scalar cutoff (16, 17), gemmMCFMA
// (127), gemmMC (129) and gemmKC (257). Outputs and some operands are
// strided views; left 2 carries NaN and ±Inf, so its product is compared by
// NaN-ness; the worker count varies with the order.
func TestAddMulBlocksMatchesPerBlock(t *testing.T) {
	products := []BlockUpdate{{Left: 0, Right: 1}, {Left: 1, Right: 1}, {Left: 0, Right: 0}, {Left: 2, Right: 0}}
	allTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, r := range []int{1, 5, 16, 17, 32, 33, 64, 127, 129, 257} {
			lefts := []*Dense{randomOperand(rng, r, r, false, false), randomOperand(rng, r, r, true, false), randomOperand(rng, r, r, false, false)}
			lefts[2].Set(r-1, 0, math.NaN())
			lefts[2].Set(0, r-1, math.Inf(1))
			lefts[2].Set(r/2, r/2, math.Inf(-1))
			rights := []*Dense{randomOperand(rng, r, r, true, false), randomOperand(rng, r, r, false, false)}
			for _, mode := range []Numerics{Strict, Fast} {
				for _, alpha := range []float64{-1, 0.5, 0} {
					blocks := slices.Clone(products)
					want := make([]*Dense, len(blocks))
					for i := range blocks {
						blocks[i].Out = randomOperand(rng, r, r, true, false)
						want[i] = blocks[i].Out.Clone()
						want[i].AddMulNumerics(alpha, lefts[blocks[i].Left], rights[blocks[i].Right], mode)
					}
					AddMulBlocks(alpha, lefts, rights, blocks, mode, 1+r%3)
					for i, u := range blocks {
						if !bitIdentical(u.Out, want[i]) {
							t.Fatalf("r=%d %v alpha=%v: block %d differs from AddMulNumerics", r, mode, alpha, i)
						}
					}
				}
			}
		}
	})
}

// TestAddMulDispatchMatchesScalar covers the public entry point (with its
// size-based dispatch) on the same contract.
func TestAddMulDispatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	for it := 0; it < 60; it++ {
		m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
		if m*k*n > 1<<22 {
			k = 8
		}
		a := randomOperand(rng, m, k, false, it%5 == 0)
		b := randomOperand(rng, k, n, false, it%5 == 0)
		c0 := randomOperand(rng, m, n, false, false)
		want := c0.Clone()
		want.AddMulScalar(1, a, b)
		got := c0.Clone()
		got.AddMul(1, a, b)
		if !bitIdentical(got, want) {
			t.Fatalf("it=%d m=%d k=%d n=%d: AddMul differs from AddMulScalar", it, m, k, n)
		}
	}
}

// TestAddMulNaNInfPropagation is the regression test for the removed
// `if av == 0 { continue }` fast path: with nonzero alpha, a zero in A must
// not suppress NaN/Inf coming from B (0·NaN = NaN, 0·Inf = NaN).
func TestAddMulNaNInfPropagation(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := NewFromSlice(1, 1, []float64{0})
		b := NewFromSlice(1, 1, []float64{bad})
		c := NewFromSlice(1, 1, []float64{1})
		c.AddMul(1, a, b)
		if !math.IsNaN(c.At(0, 0)) {
			t.Fatalf("AddMul dropped 0·%v: got %v, want NaN", bad, c.At(0, 0))
		}
		c = NewFromSlice(1, 1, []float64{1})
		c.AddMulScalar(1, a, b)
		if !math.IsNaN(c.At(0, 0)) {
			t.Fatalf("AddMulScalar dropped 0·%v: got %v, want NaN", bad, c.At(0, 0))
		}
	}
	// alpha == 0 stays the BLAS no-op: the product is never formed, so NaN
	// operands do not propagate and the output is untouched.
	a := NewFromSlice(1, 1, []float64{math.NaN()})
	b := NewFromSlice(1, 1, []float64{math.Inf(1)})
	c := NewFromSlice(1, 1, []float64{3})
	c.AddMul(0, a, b)
	if c.At(0, 0) != 3 {
		t.Fatalf("AddMul with alpha=0 modified its output: %v", c.At(0, 0))
	}
}

// TestSolveLowerUnitNaNPropagation is the regression test for the removed
// `if l == 0 { continue }` fast path in forward substitution: a zero
// multiplier must not block NaN propagation from an earlier row.
func TestSolveLowerUnitNaNPropagation(t *testing.T) {
	l := NewFromSlice(2, 2, []float64{1, 0, 0, 1}) // L = I, l21 = 0
	b := NewFromSlice(2, 1, []float64{math.NaN(), 1})
	l.SolveLowerUnit(b)
	// Row 1: b1 − l21·b0 = 1 − 0·NaN = NaN.
	if !math.IsNaN(b.At(1, 0)) {
		t.Fatalf("SolveLowerUnit dropped 0·NaN: got %v, want NaN", b.At(1, 0))
	}
	ls := NewFromSlice(2, 2, []float64{1, 0, 0, 1})
	bs := NewFromSlice(2, 1, []float64{math.NaN(), 1})
	ls.SolveLowerUnitScalar(bs)
	if !math.IsNaN(bs.At(1, 0)) {
		t.Fatalf("SolveLowerUnitScalar dropped 0·NaN: got %v, want NaN", bs.At(1, 0))
	}
}

// TestSolveLowerUnitBlockedMatchesScalar pins the blocked forward TRSM to
// the scalar reference bit for bit (the blocked loop preserves the exact
// per-element accumulation order). At n ≤ 64, the engine's block sizes,
// both operands are also strided views inside larger matrices and carry
// NaN, ±Inf and ±0; NaN-ness must match, and nothing outside the view may
// be written.
func TestSolveLowerUnitBlockedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 150} {
		for _, cols := range []int{1, 5, 33} {
			for _, special := range []bool{false, true} {
				if special && n > 64 {
					continue
				}
				l := randomOperand(rng, n, n, special, special)
				for i := 0; i < n; i++ {
					l.Set(i, i, 1)
					for j := i + 1; j < n; j++ {
						l.Set(i, j, 0)
					}
				}
				big := randomOperand(rng, n+2, cols+3, false, special)
				ref := big.Clone()
				l.SolveLowerUnitScalar(ref.Slice(1, n+1, 2, cols+2))
				l.SolveLowerUnit(big.Slice(1, n+1, 2, cols+2))
				if !bitIdentical(big, ref) {
					t.Fatalf("n=%d cols=%d special=%v: blocked forward TRSM differs from scalar", n, cols, special)
				}
			}
		}
	}
}

// TestSolveUpperBlockedMatchesScalarApprox: the blocked backward TRSM
// reorders the update sums (documented in DESIGN.md §7), so it agrees with
// the scalar reference to rounding rather than bitwise.
func TestSolveUpperBlockedMatchesScalarApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(706))
	for _, n := range []int{1, 3, 17, 64, 65, 100} {
		u := randomOperand(rng, n, n, false, false)
		for i := 0; i < n; i++ {
			u.Set(i, i, 2+rng.Float64())
			for j := 0; j < i; j++ {
				u.Set(i, j, 0)
			}
		}
		b0 := randomOperand(rng, n, 7, false, false)
		want := b0.Clone()
		if err := u.SolveUpperScalar(want); err != nil {
			t.Fatal(err)
		}
		got := b0.Clone()
		if err := u.SolveUpper(got); err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("n=%d: blocked backward TRSM diverges from scalar", n)
		}
	}
}

// TestSolveUpperSingularLeavesRHSUntouched: the blocked SolveUpper checks
// the whole diagonal up front, so on a singular factor the right-hand side
// must come back unmodified.
func TestSolveUpperSingularLeavesRHSUntouched(t *testing.T) {
	u := NewFromSlice(2, 2, []float64{1, 2, 0, 0})
	b := NewFromSlice(2, 1, []float64{3, 4})
	if err := u.SolveUpper(b); err == nil {
		t.Fatal("singular factor accepted")
	}
	if b.At(0, 0) != 3 || b.At(1, 0) != 4 {
		t.Fatalf("rhs modified on singular factor: %v, %v", b.At(0, 0), b.At(1, 0))
	}
}
