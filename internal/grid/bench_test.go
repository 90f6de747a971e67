package grid

import "testing"

func BenchmarkEnumerateNonDecreasing3x3(b *testing.B) {
	times := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := 0; i < b.N; i++ {
		n, err := EnumerateNonDecreasing(times, 3, 3, nil)
		if err != nil || n != 42 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func BenchmarkEnumerateNonDecreasing3x4(b *testing.B) {
	times := make([]float64, 12)
	for i := range times {
		times[i] = float64(i + 1)
	}
	for i := 0; i < b.N; i++ {
		n, err := EnumerateNonDecreasing(times, 3, 4, nil)
		if err != nil || n != 462 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// BenchmarkEnumerateNonDecreasing4x4 counts the 24,024 standard Young
// tableaux of a 4×4 (BenchmarkDevelEnumerate has the enumerator it
// replaced beside it).
func BenchmarkEnumerateNonDecreasing4x4(b *testing.B) {
	times := make([]float64, 16)
	for i := range times {
		times[i] = float64(i + 1)
	}
	for i := 0; i < b.N; i++ {
		n, err := EnumerateNonDecreasing(times, 4, 4, nil)
		if err != nil || n != 24024 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func BenchmarkIsRank1(b *testing.B) {
	arr := MustNew([][]float64{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}})
	for i := 0; i < b.N; i++ {
		if !arr.IsRank1(0) {
			b.Fatal("rank-1 not detected")
		}
	}
}

func BenchmarkRowMajor(b *testing.B) {
	times := make([]float64, 64)
	for i := range times {
		times[i] = float64(64 - i)
	}
	for i := 0; i < b.N; i++ {
		if _, err := RowMajor(times, 8, 8); err != nil {
			b.Fatal(err)
		}
	}
}
