package plan

import (
	"math"
	"strconv"
	"strings"
)

// DefaultQuantDigits is the service's default cycle-time quantization: 3
// significant decimal digits. Cycle-times are benchmark measurements with
// a few percent of noise, so keying the plan cache on more precision than
// the measurement carries would only shred the hit rate.
const DefaultQuantDigits = 3

// maxQuantDigits caps the quantizer: beyond 15 significant digits the
// decimal scaling itself would round, breaking idempotence.
const maxQuantDigits = 15

// quantize rounds a positive cycle-time to the given number of significant
// decimal digits. It is monotone (a ≤ b ⇒ quantize(a) ≤ quantize(b)) and
// idempotent (quantize(quantize(v)) == quantize(v)). digits ≤ 0 and
// non-positive or non-finite v return v unchanged, as do the rare values
// whose rounding would overflow float64.
//
// The rounding goes through decimal formatting rather than multiply /
// round / divide: scaling by a power of ten is inexact in binary floating
// point, and near the extremes of the exponent range the round-trip error
// is large enough to break idempotence (found by FuzzQuantize). FormatFloat
// rounds the exact binary value to the requested decimal precision
// correctly, and parsing the result back is the canonical float64 for that
// decimal — quantizing it again reproduces the same string, hence the same
// value.
func quantize(v float64, digits int) float64 {
	if digits <= 0 || !(v > 0) || math.IsInf(v, 0) {
		return v
	}
	if digits > maxQuantDigits {
		digits = maxQuantDigits
	}
	q, err := strconv.ParseFloat(strconv.FormatFloat(v, 'e', digits-1, 64), 64)
	if err != nil || !(q > 0) || math.IsInf(q, 0) {
		return v
	}
	return q
}

// quantizeTimes returns a fresh slice with every cycle-time quantized.
func quantizeTimes(times []float64, digits int) []float64 {
	out := make([]float64, len(times))
	for i, v := range times {
		out[i] = quantize(v, digits)
	}
	return out
}

// Quantized returns a copy of the request with its cycle-times (and
// MinAspect) pushed through the quantizer. The hetgridd service plans the
// quantized request, so every request inside one quantum gets the
// identical plan — the property that lets near-duplicate traffic share
// cache entries.
func (r Request) Quantized(digits int) Request {
	r.Times = quantizeTimes(r.Times, digits)
	r.MinAspect = quantize(r.MinAspect, digits)
	return r
}

// Key renders the request's cache identity: every field that can change
// the resulting plan, with cycle-times quantized to the given digits.
// Workers is deliberately absent (it never changes the result). digits ≤ 0
// renders the times as they are, so Quantized(d).Key(0) == Key(d): the key
// of a request Quantized already rounded, without rounding it again.
func (r Request) Key(digits int) string {
	var sb strings.Builder
	sb.Grow(32 + 12*len(r.Times))
	sb.WriteString("v1|s=")
	if r.Strategy == "" {
		sb.WriteString(string(StrategyAuto))
	} else {
		sb.WriteString(string(r.Strategy))
	}
	sb.WriteString("|k=")
	if r.Kernel == "" {
		sb.WriteString(string(MatMul))
	} else {
		sb.WriteString(string(r.Kernel))
	}
	sb.WriteString("|p=")
	sb.WriteString(strconv.Itoa(r.P))
	sb.WriteString("|q=")
	sb.WriteString(strconv.Itoa(r.Q))
	if r.Fixed {
		sb.WriteString("|fixed")
	}
	if r.AllowSubset {
		sb.WriteString("|subset")
	}
	if r.MinAspect != 0 {
		sb.WriteString("|asp=")
		sb.WriteString(strconv.FormatFloat(quantize(r.MinAspect, digits), 'g', -1, 64))
	}
	if r.Panel != nil {
		sb.WriteString("|panel=")
		sb.WriteString(strconv.Itoa(r.Panel.MaxBp))
		sb.WriteByte('x')
		sb.WriteString(strconv.Itoa(r.Panel.MaxBq))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(r.Panel.CapBp))
		sb.WriteByte('x')
		sb.WriteString(strconv.Itoa(r.Panel.CapBq))
	}
	sb.WriteString("|t=")
	for i, v := range r.Times {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(quantize(v, digits), 'g', -1, 64))
	}
	return sb.String()
}
