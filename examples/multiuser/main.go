// A multi-user parallel machine as a heterogeneous grid (§2.2): identical
// processors whose *effective* speeds differ because other users' jobs load
// some of them. Part one replays the paper's planning story in the
// simulator: re-balancing the block layout as the load pattern changes
// beats the static uniform distribution ScaLAPACK would use. Part two runs
// it for real: tenants factor matrices on goroutine ranks while a noisy
// neighbor loads one rank mid-run (a deterministic compute slowdown), and
// online drift rebalancing — watch the busy-time gauges, checkpoint, replan,
// resume — is compared wall-clock against riding out the static plan. The
// result of every run stays bit-identical to the undisturbed factorization.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"hetgrid"
	"hetgrid/internal/matrix"
)

// scenario is a snapshot of external load: load 0 means a dedicated
// processor; load 1 means one competing job (half speed), etc. The
// effective cycle-time of a processor is 1 + load.
type scenario struct {
	name  string
	loads []float64
}

func simulatedScenarios() {
	scenarios := []scenario{
		{"night (dedicated)", make([]float64, 16)},
		{"morning (4 busy desktops)", []float64{
			1, 1, 0, 0,
			1, 1, 0, 0,
			0, 0, 0, 0,
			0, 0, 0, 0,
		}},
		{"afternoon (heavy mixed load)", []float64{
			3, 1, 0, 0,
			1, 2, 1, 0,
			0, 1, 4, 1,
			0, 0, 1, 2,
		}},
	}

	const nb = 32
	opts := hetgrid.SimOptions{Latency: 0.05, ByteTime: 1e-5, BlockBytes: 8 * 32 * 32}

	for _, sc := range scenarios {
		times := make([]float64, 16)
		for i, l := range sc.loads {
			times[i] = 1 + l
		}
		plan, err := hetgrid.Balance(times, 4, 4, hetgrid.StrategyAuto)
		if err != nil {
			log.Fatal(err)
		}
		layout, err := plan.BestPanel(16, 16, hetgrid.MatMul)
		if err != nil {
			log.Fatal(err)
		}
		panel, err := layout.Distribute(nb, nb)
		if err != nil {
			log.Fatal(err)
		}
		uniform, err := hetgrid.Uniform(4, 4, nb, nb)
		if err != nil {
			log.Fatal(err)
		}
		uniRes, err := hetgrid.Simulate(hetgrid.MatMul, uniform, plan, opts)
		if err != nil {
			log.Fatal(err)
		}
		panRes, err := hetgrid.Simulate(hetgrid.MatMul, panel, plan, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-30s  uniform %9.0f   rebalanced %9.0f   speedup %.2fx   utilization %.0f%%\n",
			sc.name, uniRes.Makespan, panRes.Makespan,
			uniRes.Makespan/panRes.Makespan, 100*plan.MeanWorkload())
	}
	fmt.Println("\nA static uniform distribution pays the slowest processor's price all day;")
	fmt.Println("re-planning with the measured loads keeps the machine near full speed.")
}

const (
	nb = 12 // block matrix side
	r  = 48 // element block size (matrix side nb*r)
)

// noisyNeighbor is the drifting load: rank 3 drops to 1/12 speed once the
// factorization is underway, and never recovers.
var noisyNeighbor = hetgrid.FaultOptions{
	Slowdowns: []hetgrid.SlowdownPoint{{Rank: 3, Step: 1, Factor: 12}},
}

// driftPolicy reacts within two steps of sustained drift; the near-loopback
// network model reflects blocks migrating inside one address space.
var driftPolicy = hetgrid.DriftPolicy{
	Window:        2,
	Patience:      1,
	Threshold:     0.5,
	Hysteresis:    1.05,
	MaxMigrations: 1,
	Net:           hetgrid.SimOptions{Latency: 1e-9, ByteTime: 1e-12},
}

// tenant is one user's factorization job in the shared machine.
type tenant struct {
	name   string
	a      *hetgrid.Matrix
	serial *hetgrid.Matrix
	d      hetgrid.Distribution

	makespan   time.Duration
	migrations int
	identical  bool
}

// run factors the tenant's matrix under the noisy neighbor, with or
// without online drift rebalancing, and records wall-clock makespan,
// migrations and bit-identity against the serial factorization.
func (tn *tenant) run(drift bool) {
	opts := []hetgrid.Option{hetgrid.WithFaults(noisyNeighbor)}
	if drift {
		opts = append(opts, hetgrid.WithDriftRebalance(driftPolicy))
	}
	start := time.Now()
	f, stats, err := hetgrid.DistributedFactor(hetgrid.LU, tn.d, tn.a, r, opts...)
	if err != nil {
		log.Fatalf("%s: %v", tn.name, err)
	}
	tn.makespan = time.Since(start)
	tn.identical = f.Packed().Equal(tn.serial)
	tn.migrations = 0
	if stats.Drift != nil {
		tn.migrations = stats.Drift.Migrations
	}
}

func realTenants() {
	fmt.Printf("\nreal execution: tenants factor %d×%d matrices on a 2×2 grid;\n", nb*r, nb*r)
	fmt.Println("a noisy neighbor drops rank 3 to 1/12 speed at step 1")

	d, err := hetgrid.Uniform(2, 2, nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	newTenant := func(name string, seed int64) *tenant {
		a := matrix.RandomWellConditioned(nb*r, rand.New(rand.NewSource(seed)))
		serial, err := hetgrid.Factor(hetgrid.LU, d, a)
		if err != nil {
			log.Fatal(err)
		}
		return &tenant{name: name, a: a, serial: serial.Packed(), d: d}
	}

	// One tenant, static plan vs online drift rebalancing.
	tn := newTenant("tenant-a", 1)
	tn.run(false)
	static := tn.makespan
	fmt.Printf("\n%-28s %10v   migrations %d   bit-identical %v\n",
		"static plan (rides it out)", static.Round(time.Millisecond), tn.migrations, tn.identical)
	tn.run(true)
	fmt.Printf("%-28s %10v   migrations %d   bit-identical %v   speedup %.2fx\n",
		"drift rebalancing", tn.makespan.Round(time.Millisecond), tn.migrations, tn.identical,
		float64(static)/float64(tn.makespan))
	if !tn.identical {
		log.Fatal("a migrated run diverged from the serial factorization")
	}

	// Two tenants at once: each drift-rebalances its own run while sharing
	// the machine with the other.
	ta, tb := newTenant("tenant-a", 1), newTenant("tenant-b", 2)
	var wg sync.WaitGroup
	for _, tn := range []*tenant{ta, tb} {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			tn.run(true)
		}(tn)
	}
	wg.Wait()
	fmt.Println("\ntwo concurrent tenants, both drift-rebalancing:")
	for _, tn := range []*tenant{ta, tb} {
		fmt.Printf("%-28s %10v   migrations %d   bit-identical %v\n",
			tn.name, tn.makespan.Round(time.Millisecond), tn.migrations, tn.identical)
		if !tn.identical {
			log.Fatal("a migrated run diverged from the serial factorization")
		}
	}
}

func main() {
	log.SetFlags(0)
	simulatedScenarios()
	realTenants()
}
