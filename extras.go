package hetgrid

import "hetgrid/internal/obs"

// GridChoice reports the outcome of a grid-shape search.
type GridChoice struct {
	// P and Q are the chosen grid dimensions.
	P, Q int
	// Selected indexes the input cycle-times actually placed on the grid
	// (all of them unless subsets were allowed), fastest first.
	Selected []int
	// Candidates is the number of shapes evaluated.
	Candidates int
}

// TraceSimulation runs a kernel simulation with operation tracing enabled
// and returns both the result and a textual Gantt chart of processor
// activity (width columns wide). Useful for inspecting where the schedule
// loses time.
func TraceSimulation(k Kernel, d Distribution, plan *Plan, opts SimOptions, width int) (*SimResult, string, error) {
	res, err := simulate(k, d, plan, opts, true)
	if err != nil {
		return nil, "", err
	}
	p, q := d.Dims()
	return res, obs.Gantt(res.Spans, p*q, width), nil
}
