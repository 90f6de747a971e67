package kernels

// Factor bit-golden: testdata/golden_factors.json pins the Strict LU and
// Cholesky replay factors at N = 192, r ∈ {32, 64} to the bit, as one
// SHA-256 per factor over its Float64bits in row-major order. The replays
// are what the distributed engine is held bit-identical to, so a change of
// the block kernels underneath them (GEMM, triangular solves, diagonal
// factorizations) that moves a single ulp shows here. Regenerate with
//
//	go test ./internal/kernels -run TestFactorGolden -update
//
// only when a behaviour change is intended.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

const goldenFactorsPath = "testdata/golden_factors.json"

type goldenFactorRow struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// fusingArchs are the architectures whose Go compiler may fuse x − y·z into
// one FMA instruction (the language spec allows it). There a factor's bits
// depend on which expressions the compiler fused, not only on the
// algorithm, so the golden recorded without fusion does not apply.
var fusingArchs = map[string]bool{
	"arm64": true, "loong64": true, "ppc64": true, "ppc64le": true, "riscv64": true, "s390x": true,
}

// hashFactor is the SHA-256 of m's entries as little-endian Float64bits,
// row by row.
func hashFactor(m *matrix.Dense) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.RawRow(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenFactorRows(t *testing.T) []goldenFactorRow {
	t.Helper()
	const n = 192
	var rows []goldenFactorRow
	for _, r := range []int{32, 64} {
		d, err := distribution.UniformBlockCyclic(2, 2, n/r, n/r)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := ReplayLUNumerics(d, matrix.RandomWellConditioned(n, rand.New(rand.NewSource(int64(1000+r)))), matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		chol, err := ReplayCholeskyNumerics(d, matrix.RandomSPD(n, rand.New(rand.NewSource(int64(2000+r)))), matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows,
			goldenFactorRow{Name: fmt.Sprintf("lu/n%d/r%d", n, r), SHA256: hashFactor(lu.C)},
			goldenFactorRow{Name: fmt.Sprintf("cholesky/n%d/r%d", n, r), SHA256: hashFactor(chol.C)})
	}
	return rows
}

func TestFactorGolden(t *testing.T) {
	if fusingArchs[runtime.GOARCH] {
		t.Skipf("%s: the compiler may fuse multiply-adds, so factor bits are not the recorded ones", runtime.GOARCH)
	}
	got := goldenFactorRows(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFactorsPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), goldenFactorsPath)
		return
	}
	blob, err := os.ReadFile(goldenFactorsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenFactorRow
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("factor golden has %d rows, the test now produces %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: factor hash %s, golden %s", want[i].Name, got[i].SHA256, want[i].SHA256)
		}
	}
}
