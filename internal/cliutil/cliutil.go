// Package cliutil holds the flag-parsing helpers shared by the hetgrid
// command-line tools.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"hetgrid"
)

// ParseTimes parses a comma-separated list of cycle-times.
func ParseTimes(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad cycle-time %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseCrashSchedule parses a comma-separated crash schedule such as
// "2@1,0@3s": each entry is rank@step, with a trailing "s" marking a
// silent crash (the rank dies without aborting, exercising the failure
// detector).
func ParseCrashSchedule(s string) ([]hetgrid.CrashPoint, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []hetgrid.CrashPoint
	for _, part := range strings.Split(s, ",") {
		entry, silent := strings.CutSuffix(strings.TrimSpace(part), "s")
		rankStr, stepStr, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("crash entry %q must look like rank@step (e.g. 2@1 or 0@3s)", part)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
		if err != nil {
			return nil, fmt.Errorf("bad crash rank in %q: %v", part, err)
		}
		step, err := strconv.Atoi(strings.TrimSpace(stepStr))
		if err != nil {
			return nil, fmt.Errorf("bad crash step in %q: %v", part, err)
		}
		if rank < 0 || step < 0 {
			return nil, fmt.Errorf("crash entry %q needs a non-negative rank and step", part)
		}
		out = append(out, hetgrid.CrashPoint{Rank: rank, Step: step, Silent: silent})
	}
	return out, nil
}

// ParseSlowdownSchedule parses a comma-separated slowdown schedule such as
// "3@0*8,3@5*1": each entry is rank@step*factor, scheduling the rank's
// compute sections to take factor× their natural time from that step on
// (factor 1 schedules a recovery to full speed).
func ParseSlowdownSchedule(s string) ([]hetgrid.SlowdownPoint, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []hetgrid.SlowdownPoint
	for _, part := range strings.Split(s, ",") {
		entry := strings.TrimSpace(part)
		coords, factorStr, ok := strings.Cut(entry, "*")
		if !ok {
			return nil, fmt.Errorf("slowdown entry %q must look like rank@step*factor (e.g. 3@0*8)", part)
		}
		rankStr, stepStr, ok := strings.Cut(coords, "@")
		if !ok {
			return nil, fmt.Errorf("slowdown entry %q must look like rank@step*factor (e.g. 3@0*8)", part)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
		if err != nil {
			return nil, fmt.Errorf("bad slowdown rank in %q: %v", part, err)
		}
		step, err := strconv.Atoi(strings.TrimSpace(stepStr))
		if err != nil {
			return nil, fmt.Errorf("bad slowdown step in %q: %v", part, err)
		}
		factor, err := strconv.ParseFloat(strings.TrimSpace(factorStr), 64)
		if err != nil {
			return nil, fmt.Errorf("bad slowdown factor in %q: %v", part, err)
		}
		if rank < 0 || step < 0 {
			return nil, fmt.Errorf("slowdown entry %q needs a non-negative rank and step", part)
		}
		if factor < 1 || factor > 1e12 || factor != factor {
			return nil, fmt.Errorf("slowdown entry %q needs a factor in [1, 1e12]", part)
		}
		out = append(out, hetgrid.SlowdownPoint{Rank: rank, Step: step, Factor: factor})
	}
	return out, nil
}

// ParseArrangement parses a cycle-time matrix written as semicolon-
// separated rows of comma-separated values, e.g. "1,2;3,5" for a 2×2 grid.
func ParseArrangement(s string) ([][]float64, error) {
	rows := strings.Split(s, ";")
	out := make([][]float64, 0, len(rows))
	width := -1
	for _, row := range rows {
		vals, err := ParseTimes(row)
		if err != nil {
			return nil, err
		}
		if width < 0 {
			width = len(vals)
		} else if len(vals) != width {
			return nil, fmt.Errorf("ragged arrangement: row with %d values after rows of %d", len(vals), width)
		}
		out = append(out, vals)
	}
	return out, nil
}

// ParsePanel parses a BpxBq panel specification such as "8x6".
func ParsePanel(s string) (bp, bq int, err error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("panel must look like 8x6, got %q", s)
	}
	bp, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad panel rows in %q: %v", s, err)
	}
	bq, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad panel columns in %q: %v", s, err)
	}
	if bp <= 0 || bq <= 0 {
		return 0, 0, fmt.Errorf("panel dimensions must be positive, got %dx%d", bp, bq)
	}
	return bp, bq, nil
}

// OrderLetters renders a panel order like [0 1 0 0 1 0] as "ABAABA".
func OrderLetters(order []int) string {
	var sb strings.Builder
	for _, o := range order {
		if o >= 0 && o < 26 {
			sb.WriteByte(byte('A' + o))
		} else {
			fmt.Fprintf(&sb, "(%d)", o)
		}
	}
	return sb.String()
}

// FormatFloats renders a slice with fixed precision for CLI output.
func FormatFloats(x []float64, prec int) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = strconv.FormatFloat(v, 'f', prec, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
