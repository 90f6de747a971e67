package plan

import (
	"math"
	"testing"
)

// FuzzQuantize checks the quantizer's contract over arbitrary floats: it
// never panics, it is idempotent, it is monotone, and for positive finite
// inputs it stays within half a unit in the last quantized place.
func FuzzQuantize(f *testing.F) {
	// Seed corpus: boundaries of the log10 bucketing, denormals, specials.
	seeds := []struct {
		v, w   float64
		digits int
	}{
		{1, 2, 3},
		{0.999999, 1.000001, 3},
		{9.995, 10.004, 3},
		{1e-300, 2e-300, 3},
		{5e-324, 1e-323, 3}, // denormal territory: scale overflows, identity
		{1e300, 2e300, 3},
		{math.Pi, math.E, 6},
		{1.04, 1.0401, 3},
		{0, 1, 3},
		{-1, 1, 3},
		{math.Inf(1), 1, 3},
		{math.NaN(), 1, 3},
		{1, 2, 0},
		{1, 2, -5},
		{1, 2, 100},
	}
	for _, s := range seeds {
		f.Add(s.v, s.w, s.digits)
	}
	f.Fuzz(func(t *testing.T, v, w float64, digits int) {
		qv := quantize(v, digits) // must not panic for any input
		qw := quantize(w, digits)

		// Idempotence.
		if qq := quantize(qv, digits); qq != qv && !(math.IsNaN(qq) && math.IsNaN(qv)) {
			t.Fatalf("quantize not idempotent: Q(%v)=%v, Q(Q)=%v (digits %d)", v, qv, qq, digits)
		}

		// Monotonicity over positive finite inputs.
		if v > 0 && w > 0 && !math.IsInf(v, 0) && !math.IsInf(w, 0) {
			lo, hi := v, w
			qlo, qhi := qv, qw
			if lo > hi {
				lo, hi, qlo, qhi = hi, lo, qhi, qlo
			}
			if qlo > qhi {
				t.Fatalf("quantize not monotone: v=%v→%v, w=%v→%v (digits %d)", lo, qlo, hi, qhi, digits)
			}
			// Quantizing must keep the sign: cache keys for positive
			// cycle-times must stay positive.
			if !(qv > 0) {
				t.Fatalf("quantize(%v, %d) = %v, lost positivity", v, digits, qv)
			}
			// Relative error bound: digits ≥ 1 keeps the value within
			// ~5·10^-digits of itself (generous factor for the guard paths
			// that return v unchanged).
			if digits >= 1 && digits <= maxQuantDigits {
				rel := math.Abs(qv-v) / v
				if rel > 0.5*math.Pow(10, float64(1-digits))+1e-12 {
					t.Fatalf("quantize(%v, %d) = %v, relative error %v", v, digits, qv, rel)
				}
			}
		}

		// Non-positive / non-finite inputs and digits ≤ 0 pass through.
		if digits <= 0 || !(v > 0) || math.IsInf(v, 0) {
			if qv != v && !(math.IsNaN(v) && math.IsNaN(qv)) {
				t.Fatalf("quantize(%v, %d) = %v, want identity", v, digits, qv)
			}
		}
	})
}

// FuzzRequestKey checks that the cache key derivation never panics and is
// stable under quantization: a request and its quantized form share a key.
// It also pins the service's derivation, which quantizes once: the key of
// the quantized request rendered as it is, Quantized(digits).Key(0), is
// Key(digits) of the raw request — with and without a MinAspect, the other
// quantized field.
func FuzzRequestKey(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 5.0, 2, 2, false, 3)
	f.Add(0.5, 0.5001, 1e-10, 1e10, 0, 0, true, 3)
	f.Add(1.0, 1.0, 1.0, 1.0, 4, 1, false, 0)
	f.Add(math.Pi, math.E, math.Sqrt2, 1.0, 2, 2, true, 15)
	f.Fuzz(func(t *testing.T, a, b, c, d float64, p, q int, subset bool, digits int) {
		req := Request{Times: []float64{a, b, c, d}, P: p, Q: q, AllowSubset: subset}
		asp := req
		asp.MinAspect = d
		for _, req := range []Request{req, asp} {
			key := req.Key(digits)
			if key == "" {
				t.Fatal("empty key")
			}
			if qkey := req.Quantized(digits).Key(digits); qkey != key {
				t.Fatalf("key not quantization-stable:\n raw: %s\nquant: %s", key, qkey)
			}
			if once := req.Quantized(digits).Key(0); once != key {
				t.Fatalf("quantize-once key differs:\n  Key(digits): %s\nQuantized.Key(0): %s", key, once)
			}
		}
	})
}
