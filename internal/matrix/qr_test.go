package matrix

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := Random(6, 4, rng)
	f := FactorQR(a)
	qr := Mul(f.Q(), f.R())
	if !qr.EqualApprox(a, 1e-12) {
		t.Fatalf("Q*R != A:\n%v\nvs\n%v", qr, a)
	}
}

func TestQROrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := Random(5, 5, rng)
	q := FactorQR(a).Q()
	if !Mul(q.T(), q).EqualApprox(Identity(5), 1e-12) {
		t.Fatal("Q^T Q != I")
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := FactorQR(Random(7, 5, rng)).R()
	for i := 0; i < 7; i++ {
		for j := 0; j < 5 && j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %v below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestQRProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		n := 1 + int(uint(seed)%6)
		m := n + int(uint(seed>>8)%4)
		a := Random(m, n, rng)
		fac := FactorQR(a)
		if !Mul(fac.Q(), fac.R()).EqualApprox(a, 1e-10) {
			return false
		}
		q := fac.Q()
		return Mul(q.T(), q).EqualApprox(Identity(m), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQRZeroColumn(t *testing.T) {
	a := NewFromSlice(3, 2, []float64{
		0, 1,
		0, 2,
		0, 3,
	})
	f := FactorQR(a)
	if !Mul(f.Q(), f.R()).EqualApprox(a, 1e-12) {
		t.Fatal("QR of matrix with zero column failed")
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	FactorQR(New(2, 3))
}

func TestQTMulMatchesQ(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := Random(5, 3, rng)
	b := Random(5, 2, rng)
	f := FactorQR(a)
	viaQ := Mul(f.Q().T(), b)
	inPlace := b.Clone()
	f.QTMul(inPlace)
	if !viaQ.EqualApprox(inPlace, 1e-12) {
		t.Fatal("QTMul disagrees with explicit Q^T multiply")
	}
}

func TestQRDetConsistency(t *testing.T) {
	// |det(A)| = |prod diag(R)| = |prod diag(U)| for square A = L·U with
	// unit-diagonal L (diagonally dominant, so no pivoting and no sign).
	rng := rand.New(rand.NewSource(28))
	a := RandomWellConditioned(5, rng)
	lu := a.Clone()
	if err := FactorNoPivot(lu); err != nil {
		t.Fatal(err)
	}
	r := FactorQR(a).R()
	luDet, qrDet := 1.0, 1.0
	for i := 0; i < 5; i++ {
		luDet *= lu.At(i, i)
		qrDet *= r.At(i, i)
	}
	luDet, qrDet = math.Abs(luDet), math.Abs(qrDet)
	if math.Abs(luDet-qrDet)/math.Max(luDet, 1e-300) > 1e-9 {
		t.Fatalf("|det| via LU %v vs via QR %v", luDet, qrDet)
	}
}

// qrApplies names the two directions of the one reflector apply.
var qrApplies = map[string]func(*QR, *Dense){"QTMul": (*QR).QTMul, "QMul": (*QR).QMul}

// The serial replay applies a panel's Qᵀ to strided views of the whole
// matrix, a remote rank to its own copies of some of the columns: they
// agree bit for bit only because QTMul/QMul are functions of the operand
// values — not of stride, width or blocking.
func TestQRApplyIsLayoutInvariant(t *testing.T) {
	strictTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for it := 0; it < 60; it++ {
			n, nc := 1+rng.Intn(40), 1+rng.Intn(70)
			m := n + rng.Intn(90)
			if m%4 == 0 {
				m++
			}
			f := FactorQR(Random(m, n, rng))
			// The same factorization re-derived, as on a remote rank, from a
			// strided copy of its packed form.
			packed := randomOperand(rng, m, n, true, false)
			packed.CopyFrom(f.Packed())
			remote := QRFromPacked(packed, append([]float64(nil), f.Tau()...))
			b := Random(m, nc, rng)
			for name, mul := range qrApplies {
				want := b.Clone()
				mul(f, want)
				view := randomOperand(rng, m, nc, true, false)
				view.CopyFrom(b)
				mul(remote, view)
				if !view.Equal(want) {
					t.Fatalf("it=%d %s m=%d n=%d nc=%d: strided view differs from contiguous copy", it, name, m, n, nc)
				}
				split, c := b.Clone(), rng.Intn(nc+1)
				mul(f, split.Slice(0, m, 0, c))
				mul(f, split.Slice(0, m, c, nc))
				if !split.Equal(want) {
					t.Fatalf("it=%d %s m=%d n=%d nc=%d: columns 0:%d then %d: differ from all at once", it, name, m, n, nc, c, c)
				}
			}
		}
	})
}

// A blocked right-looking QR run the replay's way (views of one matrix, one
// wide apply per step) and by copied slabs (the panel and the trailing
// columns copied out, the factorization re-derived from packed + tau, the
// columns applied in two groups) at a block size that reaches the packed
// kernel: same bits.
func TestBlockedQRReplayAndSlabOrdersAgree(t *testing.T) {
	strictTiles(t, func(t *testing.T) {
		const nb, r = 5, 16
		n := nb * r
		rng := rand.New(rand.NewSource(32))
		a := Random(n, n, rng)
		replay, slabs := a.Clone(), a.Clone()
		for k := 0; k < nb; k++ {
			panel := replay.Slice(k*r, n, k*r, (k+1)*r)
			f := FactorQR(panel)
			panel.CopyFrom(f.Packed())
			f.QTMul(replay.Slice(k*r, n, (k+1)*r, n))

			panel = slabs.Slice(k*r, n, k*r, (k+1)*r)
			g := FactorQR(panel.Clone())
			panel.CopyFrom(g.Packed())
			remote := QRFromPacked(g.Packed().Clone(), append([]float64(nil), g.Tau()...))
			for _, cols := range [][2]int{{k + 1, (k + 1 + nb) / 2}, {(k + 1 + nb) / 2, nb}} {
				trailing := slabs.Slice(k*r, n, cols[0]*r, cols[1]*r)
				slab := trailing.Clone()
				remote.QTMul(slab)
				trailing.CopyFrom(slab)
			}
		}
		if !slabs.Equal(replay) {
			t.Fatal("slab order differs from replay order")
		}
	})
}

// A zero column gives tau_k = 0, and that reflector must be an exact
// identity: its packed column is never read (NaNs planted there stay out of
// the result), and a factorization with no other reflector leaves b alone.
func TestQRZeroTauIsExactIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const m, n, zero = 40, 9, 3
	a := Random(m, n, rng)
	for i := 0; i < m; i++ {
		a.Set(i, zero, 0)
	}
	f := FactorQR(a) // earlier reflectors map the zero column to itself, exactly
	if f.Tau()[zero] != 0 {
		t.Fatalf("tau[%d] = %v for a zero column", zero, f.Tau()[zero])
	}
	poisoned := f.Packed().Clone()
	for i := zero + 1; i < m; i++ {
		poisoned.Set(i, zero, math.NaN())
	}
	g := QRFromPacked(poisoned, f.Tau())
	b := Random(m, 21, rng)
	for name, mul := range qrApplies {
		want, got := b.Clone(), b.Clone()
		mul(f, want)
		mul(g, got)
		if !got.Equal(want) {
			t.Fatalf("%s read the packed column of a tau = 0 reflector", name)
		}
	}
	none := FactorQR(New(m, n))
	got := b.Clone()
	none.QTMul(got)
	none.QMul(got)
	if !bitIdentical(got, b) {
		t.Fatal("a factorization with every tau = 0 changed b")
	}
}

// The compact-WY apply against the retained reflector-at-a-time reference,
// and the factorization it belongs to against the usual residuals.
func TestQRApplyMatchesReference(t *testing.T) {
	const eps = 1.0 / (1 << 52)
	rng := rand.New(rand.NewSource(34))
	for _, dims := range [][3]int{{7, 7, 3}, {33, 20, 9}, {80, 50, 70}, {200, 32, 32}, {577, 32, 40}} {
		m, n, nc := dims[0], dims[1], dims[2]
		a := Random(m, n, rng)
		f := FactorQR(a)
		if want := factorQRAlt(a, (*Dense).colNorm, false); !f.qr.Equal(want.qr) {
			t.Fatalf("%d×%d: sweeping the panel along rows changed bits", m, n)
		}
		old := factorQRAlt(a, hypotNorm, false)
		if tol := 4 * float64(m) * eps * a.MaxAbs(); !f.qr.EqualApprox(old.qr, tol) {
			t.Fatalf("%d×%d: two-pass norm moved the factors by more than %g", m, n, tol)
		}
		b := Random(m, nc, rng)
		want, got := b.Clone(), b.Clone()
		qtmulColumns(f, want)
		f.QTMul(got)
		tol := 4 * float64(m) * eps * b.MaxAbs()
		if !got.EqualApprox(want, tol) {
			t.Fatalf("%d×%d, nc=%d: QTMul off the reference by %g > %g", m, n, nc, Sub(got, want).MaxAbs(), tol)
		}
		f.QMul(got)
		if !got.EqualApprox(b, tol) {
			t.Fatalf("%d×%d, nc=%d: Q·(Qᵀ·b) off b by %g > %g", m, n, nc, Sub(got, b).MaxAbs(), tol)
		}
		q := f.Q()
		if res := Sub(Mul(q.T(), q), Identity(m)).FrobeniusNorm(); res > 4*float64(m)*eps {
			t.Fatalf("%d×%d: ‖QᵀQ − I‖ = %g", m, n, res)
		}
		if res := Sub(Mul(q, f.R()), a).FrobeniusNorm(); res > 4*float64(m)*eps*a.MaxAbs() {
			t.Fatalf("%d×%d: ‖A − QR‖ = %g", m, n, res)
		}
	}
}

func TestQTMulSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	rng := rand.New(rand.NewSource(35))
	f := FactorQR(Random(96, 40, rng))
	b := Random(96, 24, rng)
	f.QTMul(b) // forms T, sizes the pooled workspace
	if allocs := testing.AllocsPerRun(100, func() { f.QTMul(b) }); allocs != 0 {
		t.Fatalf("steady-state QTMul allocates %v times per call", allocs)
	}
}

// Many goroutines race to be the first apply on one shared factorization:
// the compact-WY form must be built once and every result must be the one a
// lone caller gets. Run under -race.
func TestQTMulConcurrentOnSharedQR(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const m, n, nc = 120, 40, 17
	a, b := Random(m, n, rng), Random(m, nc, rng)
	want := b.Clone()
	FactorQR(a).QTMul(want)
	for round := 0; round < 8; round++ {
		f := FactorQR(a)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < 4; it++ {
					got := b.Clone()
					f.QTMul(got)
					if !got.Equal(want) {
						t.Error("concurrent QTMul differs from a lone one")
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// The engine applies a panel's Qᵀ in pieces: per compact-WY chunk, Vᵀ·B
// accumulated block row by block row onto one W (the first block row cut
// at the chunk's first row), Tᵀ·W formed once, then B_i −= V_i·(Tᵀ·W) as
// one AddMulBlocks batch per block row over its blocks. Same bits as
// QTMul: with a tau = 0 reflector whose packed column holds NaNs, with
// blocks that do not divide m, and with two chunks (r = 40).
func TestQRSplitApplyEqualsQTMul(t *testing.T) {
	strictTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for _, c := range []struct {
			name         string
			m, n, nc, bs int
			zero         int // a zero input column, or -1
		}{
			{"zero tau", 48, 12, 24, 12, 5},
			{"ragged split", 53, 20, 45, 20, -1},
			{"two chunks", 160, 40, 80, 40, -1},
			{"two chunks ragged", 150, 40, 90, 40, 33},
		} {
			a := Random(c.m, c.n, rng)
			if c.zero >= 0 {
				for i := 0; i < c.m; i++ {
					a.Set(i, c.zero, 0)
				}
			}
			f := FactorQR(a)
			packed := f.Packed().Clone()
			if c.zero >= 0 {
				if f.Tau()[c.zero] != 0 {
					t.Fatalf("%s: tau[%d] = %v for a zero column", c.name, c.zero, f.Tau()[c.zero])
				}
				for i := c.zero + 1; i < c.m; i++ {
					packed.Set(i, c.zero, math.NaN())
				}
			}
			b := Random(c.m, c.nc, rng)
			want, got := b.Clone(), b.Clone()
			f.QTMul(want)
			splitApply(QRFromPacked(packed, f.Tau()), got, c.bs)
			if !got.Equal(want) {
				t.Fatalf("%s: the split apply differs from QTMul", c.name)
			}
		}
	})
}

// splitApply overwrites b with Qᵀ·b the engine's way, on bs×bs blocks (the
// last block row and column may be shorter).
func splitApply(f *QR, b *Dense, bs int) {
	v, tt := f.WY()
	m, n := v.Dims()
	nc := b.Cols()
	// rows calls fn for the pieces of block rows that lie at or below k0.
	rows := func(k0 int, fn func(lo, hi int)) {
		for lo := k0; lo < m; {
			hi := min((lo/bs+1)*bs, m)
			fn(lo, hi)
			lo = hi
		}
	}
	cols := func(fn func(j, lo, hi int)) {
		for j, lo := 0, 0; lo < nc; j, lo = j+1, lo+bs {
			fn(j, lo, min(lo+bs, nc))
		}
	}
	for k0 := 0; k0 < n; k0 += QRChunk {
		k1 := min(k0+QRChunk, n)
		w, w2 := New(k1-k0, nc), New(k1-k0, nc)
		rows(k0, func(lo, hi int) {
			vt := v.Slice(lo, hi, k0, k1).T()
			cols(func(_, j0, j1 int) {
				w.Slice(0, k1-k0, j0, j1).AddMulNumerics(1, vt, b.Slice(lo, hi, j0, j1), Strict)
			})
		})
		w2.AddMulNumerics(1, tt.Slice(k0, k1, k0, k1), w, Strict)
		rows(k0, func(lo, hi int) {
			var rights []*Dense
			var blocks []BlockUpdate
			cols(func(j, j0, j1 int) {
				if j1-j0 != bs {
					// A ragged last column has a shape of its own.
					b.Slice(lo, hi, j0, j1).AddMulNumerics(-1, v.Slice(lo, hi, k0, k1), w2.Slice(0, k1-k0, j0, j1), Strict)
					return
				}
				rights = append(rights, w2.Slice(0, k1-k0, j0, j1))
				blocks = append(blocks, BlockUpdate{Out: b.Slice(lo, hi, j0, j1), Right: j})
			})
			AddMulBlocks(-1, []*Dense{v.Slice(lo, hi, k0, k1)}, rights, blocks, Strict, 2)
		})
	}
}
