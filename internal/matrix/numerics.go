package matrix

import "fmt"

// Numerics selects the arithmetic contract of the compute layer.
//
// Strict is the historical (and default) contract: every kernel is
// bit-identical to the scalar ikj reference — each product is a separate
// IEEE-rounded multiply followed by a separate rounded add, accumulated in
// strictly increasing k order. Strict results are reproducible across the
// scalar, packed and AVX paths, which is what lets the distributed engine
// stay bit-identical to serial replays.
//
// Fast trades the bitwise contract for an error-bound contract: on CPUs
// with AVX2+FMA the packed GEMM dispatches to a fused micro-kernel (one
// rounding per multiply-add instead of two; 6×8 on YMM registers, 8×16 on
// ZMM registers where AVX-512 runs). Each output element is still
// accumulated in strictly increasing k order, so the Fast result C̃ of an
// m×k·k×n update satisfies the componentwise bound
//
//	|C̃ - C| ≤ 2·γ(k+1)·(|C0| + |alpha|·|A|·|B|),  γ(t) = t·ε/(1-t·ε)
//
// against the Strict result C (both paths are within γ(k+1) of the exact
// value). On hardware without AVX2+FMA, Fast falls back to the Strict
// packed path, so the bound holds trivially. NaN/Inf semantics are
// preserved: a NaN in Strict is a NaN in Fast (fusion never un-poisons an
// operand), and ±Inf propagates with the same sign absent catastrophic
// overflow differences. Property tests in numerics_test.go verify the
// bound; DESIGN.md §10 documents the contract.
type Numerics int

const (
	// Strict is the bit-identical-to-scalar contract (the default).
	Strict Numerics = iota
	// Fast is the FMA-fused, error-bounded contract.
	Fast
)

func (n Numerics) String() string {
	switch n {
	case Strict:
		return "strict"
	case Fast:
		return "fast"
	default:
		return fmt.Sprintf("numerics(%d)", int(n))
	}
}

// FastAvailable reports whether the Fast contract actually changes the
// arithmetic on this CPU: true when the AVX2+FMA fused micro-kernel is
// usable. When false, Fast mode runs the Strict kernels (the error bound
// holds with equality).
func FastAvailable() bool { return gemmHaveFMA }

// AddMulNumerics is AddMul under an explicit numerics contract: Strict is
// exactly AddMul; Fast routes large updates through the FMA-fused
// micro-kernel when the CPU supports it. See Numerics for the error bound.
func (m *Dense) AddMulNumerics(alpha float64, a, b *Dense, mode Numerics) {
	m.checkAddMul(a, b)
	if alpha == 0 {
		return
	}
	m.addMulDispatchMode(alpha, a, b, mode)
}

// SolveLowerUnitNumerics is SolveLowerUnit under an explicit numerics
// contract: the off-diagonal GEMM updates of the blocked forward solve run
// under mode; the diagonal substitutions are always scalar.
func (m *Dense) SolveLowerUnitNumerics(b *Dense, mode Numerics) {
	if m.rows != m.cols || m.rows != b.rows {
		panic(fmt.Sprintf("matrix: SolveLowerUnit %d×%d with rhs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	m.solveLowerUnitMode(b, mode)
}
