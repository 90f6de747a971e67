package onedim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sequenceCounts returns how many of the b blocks Sequence hands each
// processor: the optimal static allocation.
func sequenceCounts(b int, times []float64) ([]int, error) {
	seq, err := Sequence(b, times)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(times))
	for _, p := range seq {
		counts[p]++
	}
	return counts, nil
}

func TestAllocateKnown(t *testing.T) {
	// Two processors, speeds 1 and 1/3: out of 4 blocks the fast one gets 3.
	counts, err := sequenceCounts(4, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 || counts[1] != 1 {
		t.Fatalf("counts = %v, want [3 1]", counts)
	}
}

func TestAllocatePaperColumnExample(t *testing.T) {
	// §3.2.2: within each panel column of the [[1,2],[3,5]] grid with
	// B_p = 8, the first grid row (cycle-times 1 and 2) gets 6 blocks and
	// the second (3 and 5) gets 2.
	counts, err := sequenceCounts(8, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 6 || counts[1] != 2 {
		t.Fatalf("column 1 counts = %v, want [6 2]", counts)
	}
	counts, err = sequenceCounts(8, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 6 || counts[1] != 2 {
		t.Fatalf("column 2 counts = %v, want [6 2]", counts)
	}
}

func TestSequencePaperABAABA(t *testing.T) {
	// §3.2.2: equivalent column processors A (3/20) and B (5/17); six panel
	// columns are handed out as ABAABA.
	seq, err := Sequence(6, []float64{3.0 / 20.0, 5.0 / 17.0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 0, 1, 0} // A B A A B A
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence = %v, want %v (ABAABA)", seq, want)
		}
	}
}

func TestSequencePrefixMatchesAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		times := make([]float64, n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		b := rng.Intn(30)
		seq, err := Sequence(b, times)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= b; k++ {
			prefix, err := Sequence(k, times)
			if err != nil {
				t.Fatal(err)
			}
			for i := range prefix {
				if prefix[i] != seq[i] {
					t.Fatalf("Sequence(%d) = %v is not a prefix of Sequence(%d) = %v", k, prefix, b, seq)
				}
			}
		}
	}
}

func TestAllocateSumsToB(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := func(seed int64) bool {
		n := 1 + int(uint(seed)%6)
		b := int(uint(seed>>8) % 50)
		times := make([]float64, n)
		for i := range times {
			times[i] = 0.05 + rng.Float64()
		}
		counts, err := sequenceCounts(b, times)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAllocateOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		b := 1 + rng.Intn(10)
		times := make([]float64, n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		greedy, err := sequenceCounts(b, times)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := BruteForceAllocate(b, times)
		if err != nil {
			t.Fatal(err)
		}
		gs, bs := makespan(greedy, times), makespan(brute, times)
		if gs > bs+1e-12 {
			t.Fatalf("greedy %v (span %v) worse than brute force %v (span %v) for times %v",
				greedy, gs, brute, bs, times)
		}
	}
}

func TestMakespan(t *testing.T) {
	if got := makespan([]int{3, 1}, []float64{1, 3}); got != 3 {
		t.Fatalf("makespan = %v, want 3", got)
	}
	if got := makespan([]int{0, 0}, []float64{1, 3}); got != 0 {
		t.Fatalf("empty makespan = %v", got)
	}
}

func TestAggregateCycleTimePaper(t *testing.T) {
	// §3.2.2: 6 blocks at cycle-time 1 and 2 blocks at cycle-time 3 act as
	// a single processor of cycle-time 3/20; 6 at 2 and 2 at 5 give 5/17.
	got, err := AggregateCycleTime([]int{6, 2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.0/20.0) > 1e-15 {
		t.Fatalf("aggregate = %v, want 3/20", got)
	}
	got, err = AggregateCycleTime([]int{6, 2}, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5.0/17.0) > 1e-15 {
		t.Fatalf("aggregate = %v, want 5/17", got)
	}
}

func TestAggregateCycleTimeErrors(t *testing.T) {
	if _, err := AggregateCycleTime([]int{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := AggregateCycleTime([]int{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected all-zero error")
	}
	if _, err := AggregateCycleTime([]int{-1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected negative count error")
	}
}

func TestHarmonicMeanCycleTimePaper(t *testing.T) {
	// §3.1.2 KL example: column {1,3} acts as cycle-time 2/(1+1/3) = 3/2;
	// column {2,5} as 2/(1/2+1/5) = 20/7.
	got, err := HarmonicMeanCycleTime([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.5) > 1e-15 {
		t.Fatalf("harmonic mean = %v, want 3/2", got)
	}
	got, err = HarmonicMeanCycleTime([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20.0/7.0) > 1e-15 {
		t.Fatalf("harmonic mean = %v, want 20/7", got)
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := sequenceCounts(-1, []float64{1}); err == nil {
		t.Fatal("negative b accepted")
	}
	if _, err := sequenceCounts(3, nil); err == nil {
		t.Fatal("no processors accepted")
	}
	if _, err := sequenceCounts(3, []float64{1, 0}); err == nil {
		t.Fatal("zero cycle-time accepted")
	}
	if _, err := Sequence(-1, []float64{1}); err == nil {
		t.Fatal("negative b accepted by Sequence")
	}
	if _, err := BruteForceAllocate(3, []float64{-1}); err == nil {
		t.Fatal("negative cycle-time accepted by brute force")
	}
	if _, err := Sequence(3, []float64{math.Inf(1)}); err == nil {
		t.Fatal("infinite cycle-time accepted")
	}
}

func TestAllocateDeterministicTies(t *testing.T) {
	// Equal speeds: ties break toward lower indices, so counts are as even
	// as possible with earlier processors first.
	counts, err := sequenceCounts(5, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts = %v, want [2 2 1]", counts)
	}
	seq, _ := Sequence(3, []float64{1, 1, 1})
	for i, p := range []int{0, 1, 2} {
		if seq[i] != p {
			t.Fatalf("tie-break sequence = %v, want [0 1 2]", seq)
		}
	}
}

func TestAllocateFastProcessorDominates(t *testing.T) {
	// A processor 100× faster should take the overwhelming majority.
	counts, err := sequenceCounts(101, []float64{0.01, 1})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] < 99 {
		t.Fatalf("fast processor got only %d of 101 blocks", counts[0])
	}
}
