package onedim

import (
	"math"
	"math/rand"
	"testing"
)

func TestLUSequenceOptimal(t *testing.T) {
	// Exhaustive cross-check on small instances: the reverse greedy must
	// match the brute-force optimum exactly.
	rng := rand.New(rand.NewSource(161))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2)  // processors
		nb := 1 + rng.Intn(7) // column blocks
		times := make([]float64, n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		seq, err := LUSequence(nb, times)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LUCost(seq, times)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := BruteForceLUSequence(nb, times)
		if err != nil {
			t.Fatal(err)
		}
		if got > want+1e-9 {
			t.Fatalf("greedy LU cost %v above optimum %v (times %v, nb %d, seq %v)",
				got, want, times, nb, seq)
		}
	}
}

func TestLUSequenceBeatsCyclic(t *testing.T) {
	// On a heterogeneous ring the optimal sequence must beat the blind
	// cyclic assignment.
	times := []float64{1, 2, 5}
	nb := 12
	seq, err := LUSequence(nb, times)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := LUCost(seq, times)
	if err != nil {
		t.Fatal(err)
	}
	cyclic := make([]int, nb)
	for k := range cyclic {
		cyclic[k] = k % len(times)
	}
	cyc, err := LUCost(cyclic, times)
	if err != nil {
		t.Fatal(err)
	}
	if opt >= cyc {
		t.Fatalf("optimal %v not below cyclic %v", opt, cyc)
	}
}

func TestLUSequenceHomogeneousMatchesCyclicCost(t *testing.T) {
	// Equal speeds: any balanced interleaving is optimal; the greedy's cost
	// must equal the cyclic cost.
	times := []float64{1, 1, 1}
	nb := 9
	seq, _ := LUSequence(nb, times)
	opt, _ := LUCost(seq, times)
	cyclic := make([]int, nb)
	for k := range cyclic {
		cyclic[k] = k % 3
	}
	cyc, _ := LUCost(cyclic, times)
	if math.Abs(opt-cyc) > 1e-12 {
		t.Fatalf("homogeneous: greedy %v != cyclic %v", opt, cyc)
	}
}

func TestLUSequenceCountsMatchAllocate(t *testing.T) {
	// The multiset of assignments equals the plain greedy's (it is the
	// same greedy, reversed).
	times := []float64{0.3, 0.7, 1.1}
	nb := 14
	seq, _ := LUSequence(nb, times)
	counts := make([]int, 3)
	for _, p := range seq {
		counts[p]++
	}
	want, _ := sequenceCounts(nb, times)
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts %v != Sequence's counts %v", counts, want)
		}
	}
}

func TestLUCostValidation(t *testing.T) {
	if _, err := LUCost([]int{0, 3}, []float64{1, 2}); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	if _, err := LUCost([]int{0}, []float64{-1}); err == nil {
		t.Fatal("bad times accepted")
	}
	if _, err := LUCost(nil, []float64{1}); err != nil {
		t.Fatal("empty assignment should be fine")
	}
}

func TestBruteForceLUSequenceValidation(t *testing.T) {
	if _, _, err := BruteForceLUSequence(-1, []float64{1}); err == nil {
		t.Fatal("negative nb accepted")
	}
	if _, _, err := BruteForceLUSequence(2, nil); err == nil {
		t.Fatal("no processors accepted")
	}
}

func TestLUSequenceLastColumnsToFastest(t *testing.T) {
	// The final columns dominate the tail steps; the greedy (built from
	// the right) must give the very last column to the fastest processor.
	times := []float64{5, 1, 3}
	seq, err := LUSequence(10, times)
	if err != nil {
		t.Fatal(err)
	}
	if seq[len(seq)-1] != 1 {
		t.Fatalf("last column on processor %d, want fastest (1); seq %v", seq[len(seq)-1], seq)
	}
}
