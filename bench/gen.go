package main

// Every input of the benchmark is generated here from the run seed: the
// program under test only ever sees the generated matrices and request
// bodies. Each consumer draws from its own named stream, so adding a
// consumer never shifts the inputs of another.

import (
	"hash/fnv"
	"math/rand"
	"strconv"

	"hetgrid"
	"hetgrid/internal/matrix"
)

func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// genMatrices returns the kernel's input(s): B is nil except for MatMul.
// The generators are the ones gridsim uses for the same kernels, so the
// factorizations are safe without pivoting.
func genMatrices(k hetgrid.Kernel, n int, seed int64) (a, b *matrix.Dense) {
	rng := rngFor(seed, "matrix/"+k.String())
	switch k {
	case hetgrid.MatMul:
		return matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	case hetgrid.LU:
		return matrix.RandomWellConditioned(n, rng), nil
	case hetgrid.Cholesky:
		return matrix.RandomSPD(n, rng), nil
	default:
		return matrix.Random(n, n, rng), nil
	}
}

// cycleTimes draws n cycle-times in [0.25, 2.25), the range benchservice
// uses, so heterogeneity spans about one order of magnitude.
func cycleTimes(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.25 + 2*rng.Float64()
	}
	return out
}

// appendTimes renders `"times":[…]` with four decimals — more precision
// than the service's three-significant-digit quantum, as measured
// cycle-times have.
func appendTimes(dst []byte, times []float64) []byte {
	dst = append(dst, `"times":[`...)
	for i, v := range times {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'f', 4, 64)
	}
	return append(dst, ']')
}

const (
	hotKeySpace = 16384 // 16× the service's default 1024-entry cache
	hotBatch    = 32
	hotZipf     = 1.1
)

// hotKeys renders the plan-hot key space: one heuristic 2×3 request body
// per key, key 0 being the most popular under the Zipf draw.
func hotKeys(seed int64) [][]byte {
	rng := rngFor(seed, "plan-hot/keys")
	keys := make([][]byte, hotKeySpace)
	for i := range keys {
		b := append([]byte{'{'}, appendTimes(nil, cycleTimes(rng, 6))...)
		keys[i] = append(b, `,"p":2,"q":3,"strategy":"heuristic"}`...)
	}
	return keys
}

// hotStream yields one client's sequence of /v1/plans bodies: batches of
// hotBatch keys drawn Zipf(hotZipf) over the key space.
type hotStream struct {
	keys [][]byte
	zipf *rand.Zipf
	buf  []byte
}

func newHotStream(keys [][]byte, seed int64, client int) *hotStream {
	rng := rngFor(seed, "plan-hot/client/"+strconv.Itoa(client))
	return &hotStream{keys: keys, zipf: rand.NewZipf(rng, hotZipf, 1, uint64(len(keys)-1))}
}

// next returns the next batch body; the slice is reused by the following
// call.
func (s *hotStream) next() []byte {
	s.buf = append(s.buf[:0], '[')
	for i := 0; i < hotBatch; i++ {
		if i > 0 {
			s.buf = append(s.buf, ',')
		}
		s.buf = append(s.buf, s.keys[s.zipf.Uint64()]...)
	}
	s.buf = append(s.buf, ']')
	return s.buf
}

// The four request classes of one plan-cold cycle.
const (
	coldExact3x3 = iota
	coldHeur3x3
	coldHeur4x4Panel
	coldShape16
	coldClasses
)

// coldStream yields one client's sequence of /v1/plan bodies in cycles of
// the four classes. Every cycle draws fresh cycle-times, so every request
// misses the cache; the exact and the heuristic 3×3 request of one cycle
// share theirs. The order inside a cycle is drawn too: with a fixed order
// the two closed-loop clients lock into step — both in their 900-µs exact
// solve at once, or never — and whole runs differ by a third depending on
// which it was.
type coldStream struct {
	rng   *rand.Rand
	order []int        // classes left in the current cycle
	times [3][]float64 // this cycle's 3×3, 4×4 and shape-search cycle-times
	buf   []byte
}

func newColdStream(seed int64, client int) *coldStream {
	return &coldStream{rng: rngFor(seed, "plan-cold/client/"+strconv.Itoa(client))}
}

// next returns the next body and its class; the slice is reused by the
// following call.
func (s *coldStream) next() ([]byte, int) {
	if len(s.order) == 0 {
		s.times = [3][]float64{cycleTimes(s.rng, 9), cycleTimes(s.rng, 16), cycleTimes(s.rng, 16)}
		s.order = s.rng.Perm(coldClasses)
	}
	class := s.order[0]
	s.order = s.order[1:]
	s.buf = coldBody(s.buf[:0], class, s.times[max(class-1, 0)])
	return s.buf, class
}

func coldBody(dst []byte, class int, times []float64) []byte {
	dst = append(dst, '{')
	dst = appendTimes(dst, times)
	switch class {
	case coldExact3x3:
		dst = append(dst, `,"p":3,"q":3,"strategy":"exact"}`...)
	case coldHeur3x3:
		dst = append(dst, `,"p":3,"q":3,"strategy":"heuristic"}`...)
	case coldHeur4x4Panel:
		dst = append(dst, `,"p":4,"q":4,"strategy":"heuristic","kernel":"lu","panel":{"max_bp":16,"max_bq":16}}`...)
	case coldShape16:
		dst = append(dst, `,"allow_subset":true}`...)
	}
	return dst
}
