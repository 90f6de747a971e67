package run

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

func uniform(t *testing.T, p, q int) distribution.Distribution {
	t.Helper()
	d, err := distribution.UniformBlockCyclic(p, q, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ckpt(step int) *Checkpoint { return &Checkpoint{Step: step, Work: matrix.New(1, 1)} }

func failure(rank, step int) error { return &engine.RankFailure{Rank: rank, Step: step} }

var errMigrated = fmt.Errorf("%w at step 4", ErrMigrate)

// TestNext is the transition table: state × outcome → state, without a
// world, a fabric or a clock.
func TestNext(t *testing.T) {
	d := uniform(t, 2, 2)
	migrated := uniform(t, 2, 2)
	pending := []engine.CrashPoint{{Rank: 1, Step: 5}}
	base := State{Kernel: plan.LU, Dist: d, Times: []float64{1, 2, 3, 4}, Recoveries: 2, Migrations: 1}
	resumed := base
	resumed.Ckpt = ckpt(2)
	afterMigration := State{Kernel: plan.LU, Dist: migrated, Times: []float64{1, 1, 1, 8}, Ckpt: ckpt(4), Recoveries: 2}

	cases := []struct {
		name    string
		s       State
		o       Outcome
		wantErr string // substring; empty = no error
		check   func(t *testing.T, next State)
	}{
		{"done", base, Outcome{}, "", func(t *testing.T, next State) {
			if !reflect.DeepEqual(next, base) {
				t.Fatalf("done changed the state: %+v", next)
			}
		}},
		{"failure with a newer checkpoint", resumed, Outcome{Err: failure(3, 5), Ckpt: ckpt(4)}, "", func(t *testing.T, next State) {
			if next.StartK() != 4 || next.Recoveries != 1 || next.Migrations != 1 {
				t.Fatalf("%+v", next)
			}
			// Rank 3 (time 4) is gone; the survivors keep their times,
			// fastest first on the replanned grid.
			if p, q := next.Dist.Dims(); p*q != len(next.Times) || len(next.Times) > 3 {
				t.Fatalf("%d×%d grid for times %v", p, q, next.Times)
			}
			for _, tm := range next.Times {
				if tm == 4 {
					t.Fatalf("dead rank's time survived: %v", next.Times)
				}
			}
		}},
		{"failure without a newer checkpoint keeps the resume point", resumed, Outcome{Err: failure(0, 3)}, "", func(t *testing.T, next State) {
			if next.Ckpt != resumed.Ckpt {
				t.Fatalf("resume point lost: %+v", next.Ckpt)
			}
		}},
		{"failure before any checkpoint restarts from scratch", base, Outcome{Err: failure(0, 1)}, "", func(t *testing.T, next State) {
			if next.Ckpt != nil || next.StartK() != 0 {
				t.Fatalf("%+v", next.Ckpt)
			}
		}},
		{"failure right after a migration resumes from its checkpoint", afterMigration, Outcome{Err: failure(1, 5)}, "", func(t *testing.T, next State) {
			if next.Ckpt != afterMigration.Ckpt || next.Recoveries != 1 {
				t.Fatalf("%+v", next)
			}
			// The survivors are planned on the estimated times {1, 1, 8}.
			for _, tm := range next.Times {
				if tm != 1 && tm != 8 {
					t.Fatalf("survivors not planned on the estimated times: %v", next.Times)
				}
			}
		}},
		{"detected failure names only the rank", base, Outcome{Err: &engine.RankFailure{Rank: 2, Step: -1, Detected: true}}, "", func(t *testing.T, next State) {
			if next.Recoveries != 1 {
				t.Fatalf("%+v", next)
			}
		}},
		{"migration", base,
			Outcome{Err: errMigrated, Ckpt: ckpt(4), Remaining: pending,
				Migrate: &Migration{Dist: migrated, Times: []float64{1, 1, 1, 8}, Moved: 7, Saving: 3}},
			"", func(t *testing.T, next State) {
				if next.Dist != migrated || !reflect.DeepEqual(next.Times, []float64{1, 1, 1, 8}) {
					t.Fatalf("layout or times not taken from the decision: %+v", next)
				}
				if next.StartK() != 4 || next.Migrations != 0 || next.Recoveries != 2 || !reflect.DeepEqual(next.Crashes, pending) {
					t.Fatalf("%+v", next)
				}
			}},
		{"migration budget at zero", afterMigration,
			Outcome{Err: errMigrated, Ckpt: ckpt(6), Migrate: &Migration{Dist: d, Times: []float64{1, 1, 1, 1}}},
			"migration budget exhausted", nil},
		{"migration verdict without a commit (rank 0 lives elsewhere)", base, Outcome{Err: errMigrated}, "no migration committed", nil},
		{"recovery budget exhausted", State{Kernel: plan.LU, Dist: d, Times: []float64{1, 1, 1, 1}}, Outcome{Err: failure(1, 2)}, "no recovery budget", nil},
		{"last survivor dies", State{Kernel: plan.LU, Dist: uniform(t, 1, 1), Times: []float64{1}, Recoveries: 1}, Outcome{Err: failure(0, 2)}, "no survivors", nil},
		{"dead rank outside the world", base, Outcome{Err: failure(9, 2)}, "outside world", nil},
		{"any other error ends the run", base, Outcome{Err: errors.New("singular block")}, "singular block", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			next, err := tc.s.Next(tc.o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				tc.check(t, next)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want an error containing %q, got %v", tc.wantErr, err)
			}
			if !errors.Is(err, tc.o.Err) {
				t.Fatalf("error does not wrap the outcome's: %v", err)
			}
		})
	}
}

// TestNextStrikesTheFiredCrashPoint: a process sees only the crash points
// of ranks it hosts fire, so the point a failure names is struck even when
// this process's world still lists it — and exactly once, so duplicates
// scheduled for later attempts survive.
func TestNextStrikesTheFiredCrashPoint(t *testing.T) {
	d := uniform(t, 2, 2)
	dup := engine.CrashPoint{Rank: 0, Step: 1}
	other := engine.CrashPoint{Rank: 2, Step: 4}
	s := State{Kernel: plan.LU, Dist: d, Times: []float64{1, 1, 1, 1}, Recoveries: 3,
		Crashes: []engine.CrashPoint{dup, other, dup}}
	for _, tc := range []struct {
		name      string
		remaining []engine.CrashPoint
	}{
		{"fired on another process: still listed here", []engine.CrashPoint{dup, other, dup}},
		{"fired here: already gone", []engine.CrashPoint{other, dup}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next, err := s.Next(Outcome{Err: failure(0, 1), Remaining: tc.remaining})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(next.Crashes, []engine.CrashPoint{other, dup}) {
				t.Fatalf("carried %v, want one %v struck", next.Crashes, dup)
			}
		})
	}
	// A detected failure carries no step: the rank's first point goes.
	next, err := s.Next(Outcome{Err: &engine.RankFailure{Rank: 2, Step: -1, Detected: true}, Remaining: s.Crashes})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next.Crashes, []engine.CrashPoint{dup, dup}) {
		t.Fatalf("carried %v", next.Crashes)
	}
}

// TestAttemptsInvariant drives random event sequences through Next and the
// statistics: every attempt after the first is owed to exactly one
// migration or one recovery, and the budgets bound both.
func TestAttemptsInvariant(t *testing.T) {
	d := uniform(t, 2, 3)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := State{Kernel: plan.LU, Dist: d, Times: []float64{1, 2, 3, 4, 5, 6},
			Recoveries: rng.Intn(4), Migrations: rng.Intn(3)}
		recoveries, migrations := s.Recoveries, s.Migrations
		var res Result
		attempts := 1
		for {
			var o Outcome
			n := len(s.Times)
			switch rng.Intn(4) {
			case 0: // done
			case 1:
				o = Outcome{Err: failure(rng.Intn(n), rng.Intn(6))}
				if rng.Intn(2) == 0 {
					o.Ckpt = ckpt(s.StartK() + 1)
				}
			case 2:
				o = Outcome{Err: errMigrated, Ckpt: ckpt(s.StartK() + 2),
					Migrate: &Migration{Dist: s.Dist, Times: s.Times, Moved: 1}}
			case 3:
				o = Outcome{Err: errors.New("boom")}
			}
			next, err := s.Next(o)
			if err != nil || o.Err == nil {
				break
			}
			res.Advance(o, next)
			if next.StartK() < s.StartK() {
				t.Fatalf("seed %d: resume point moved back from %d to %d", seed, s.StartK(), next.StartK())
			}
			s = next
			attempts++
		}
		if attempts != 1+res.Drift.Migrations+res.Faults.Recoveries {
			t.Fatalf("seed %d: %d attempts, %d migrations, %d recoveries", seed, attempts, res.Drift.Migrations, res.Faults.Recoveries)
		}
		if res.Faults.Recoveries != recoveries-s.Recoveries || res.Drift.Migrations != migrations-s.Migrations {
			t.Fatalf("seed %d: statistics %+v %+v disagree with the budgets spent (%d→%d, %d→%d)", seed,
				res.Faults, res.Drift, recoveries, s.Recoveries, migrations, s.Migrations)
		}
	}
}

// TestOneShot: a fixed fabric serves one world; asked again it refuses,
// saying why.
func TestOneShot(t *testing.T) {
	mem := engine.NewMemTransport(4)
	f := OneShot(mem)
	if got, err := f(4); err != nil || got != engine.Transport(mem) {
		t.Fatalf("first call: %v, %v", got, err)
	}
	if _, err := f(3); err == nil || !strings.Contains(err.Error(), "a fixed transport serves exactly one world") {
		t.Fatalf("second call: %v", err)
	}
}
