package main

// The deterministic quality metrics. Every workload runs on plans — the one
// its engine run is distributed by, the ones its service serves, the ones of
// the paper's table — and for those plans the paper's claims are checked
// the same way: Obj2 against the exact optimum, and simulated makespan
// against the uniform and the Kalinov–Lastovetsky distributions. Nothing
// here is timed and nothing depends on the run seed, so the four ratios
// repeat bit for bit and any change to them is a change of plan, panel or
// simulator behaviour.

import (
	"fmt"

	"hetgrid"
)

// simNet is the virtual network of every model simulation: switched, with
// the latency and byte-time of the repository's simulation benchmarks.
func simNet(r int, b hetgrid.BroadcastKind) hetgrid.SimOptions {
	return hetgrid.SimOptions{Latency: 0.05, ByteTime: 1e-5, BlockBytes: float64(8 * r * r), Broadcast: b}
}

// modelCase is one planning problem with the kernel it is planned for.
type modelCase struct {
	req        hetgrid.PlanRequest
	kernel     hetgrid.Kernel
	nb, r      int // block matrix is nb×nb blocks of r×r
	maxPanel   int // BestPanel search bound
	broadcasts []hetgrid.BroadcastKind
}

// modelScenario is a solved case: the plan and the three distributions the
// paper compares.
type modelScenario struct {
	modelCase
	plan                  *hetgrid.Plan
	uniform, kl, hetPanel hetgrid.Distribution
}

func buildScenario(c modelCase) (*modelScenario, error) {
	plan, _, err := hetgrid.SolvePlan(c.req)
	if err != nil {
		return nil, err
	}
	layout, err := plan.BestPanel(c.maxPanel, c.maxPanel, c.kernel)
	if err != nil {
		return nil, err
	}
	s := &modelScenario{modelCase: c, plan: plan}
	if s.hetPanel, err = layout.Distribute(c.nb, c.nb); err != nil {
		return nil, err
	}
	if s.uniform, err = hetgrid.Uniform(c.req.P, c.req.Q, c.nb, c.nb); err != nil {
		return nil, err
	}
	if s.kl, err = hetgrid.KalinovLastovetsky(plan, c.nb, c.nb); err != nil {
		return nil, err
	}
	return s, nil
}

// simRow is the three makespans of one scenario under one broadcast.
type simRow struct {
	uniform, kl, hetPanel *hetgrid.SimResult
}

// simulate runs the scenario's simulations (3 per broadcast), reporting each
// to visit when non-nil.
func (s *modelScenario) simulate(visit func(dist string, b hetgrid.BroadcastKind, res *hetgrid.SimResult)) ([]simRow, error) {
	rows := make([]simRow, 0, len(s.broadcasts))
	for _, b := range s.broadcasts {
		var row simRow
		for _, x := range []struct {
			name string
			d    hetgrid.Distribution
			out  **hetgrid.SimResult
		}{{"uniform", s.uniform, &row.uniform}, {"kl", s.kl, &row.kl}, {"het-panel", s.hetPanel, &row.hetPanel}} {
			res, err := hetgrid.Simulate(s.kernel, x.d, s.plan, simNet(s.r, b))
			if err != nil {
				return nil, fmt.Errorf("simulate %v %s %v: %w", s.kernel, x.name, b, err)
			}
			if res.Makespan < res.CompBound {
				return nil, fmt.Errorf("simulate %v %s %v: makespan %g below the compute bound %g", s.kernel, x.name, b, res.Makespan, res.CompBound)
			}
			*x.out = res
			if visit != nil {
				visit(x.name, b, res)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// modelRatios accumulates the three simulation ratios over rows.
type modelRatios struct {
	vsUniform, vsKL, efficiency []float64
}

func (m *modelRatios) add(rows []simRow) {
	for _, r := range rows {
		m.vsUniform = append(m.vsUniform, r.uniform.Makespan/r.hetPanel.Makespan)
		m.vsKL = append(m.vsKL, r.kl.Makespan/r.hetPanel.Makespan)
		m.efficiency = append(m.efficiency, r.hetPanel.CompBound/r.hetPanel.Makespan)
	}
}

func (m *modelRatios) into(out map[string]summary) {
	out["sim_speedup_vs_uniform"] = summary{P50: geomean(m.vsUniform), N: len(m.vsUniform)}
	out["sim_speedup_vs_kl"] = summary{P50: geomean(m.vsKL), N: len(m.vsKL)}
	out["sim_efficiency"] = summary{P50: geomean(m.efficiency), N: len(m.efficiency)}
}

// planQuality is Obj2 of the scenario's plan over Obj2 of the exact optimum
// for the same cycle-times.
func planQuality(s *modelScenario) (float64, error) {
	req := s.req
	req.Strategy = hetgrid.PlanExact
	exact, _, err := hetgrid.SolvePlan(req)
	if err != nil {
		return 0, err
	}
	return s.plan.Objective() / exact.Objective(), nil
}
