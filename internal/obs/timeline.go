package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// busyTimes sums each rank's compute-span durations over ranks 0..n-1 —
// the per-processor workload of the paper (a processor with share
// r_i·t_ij·c_j of every panel step accumulates proportional busy time),
// predicted when the spans are a simulator's, measured when an engine's.
func busyTimes(spans []Span, n int) []float64 {
	busy := make([]float64, n)
	for _, sp := range spans {
		if sp.Kind == SpanCompute && sp.Rank >= 0 && sp.Rank < n {
			busy[sp.Rank] += sp.End - sp.Start
		}
	}
	return busy
}

// Gantt renders a textual Gantt chart of compute activity: one row per
// rank, width columns across the makespan, '#' for busy and '.' for idle.
// Partial occupancy of a cell renders as '+'. Only compute spans are drawn
// (sends overlap computes on separate NIC resources; steps, phases and
// receive waits include idle time).
func Gantt(spans []Span, ranks, width int) string {
	if width <= 0 {
		width = 80
	}
	makespan := 0.0
	for _, sp := range spans {
		makespan = math.Max(makespan, sp.End)
	}
	if makespan == 0 {
		return ""
	}
	cell := makespan / float64(width)
	cover := make([][]float64, ranks)
	for i := range cover {
		cover[i] = make([]float64, width)
	}
	for _, sp := range spans {
		if sp.Kind != SpanCompute || sp.Rank < 0 || sp.Rank >= ranks {
			continue
		}
		first := int(sp.Start / cell)
		last := int(sp.End / cell)
		if last >= width {
			last = width - 1
		}
		for c := first; c <= last; c++ {
			lo := math.Max(sp.Start, float64(c)*cell)
			hi := math.Min(sp.End, float64(c+1)*cell)
			if hi > lo {
				cover[sp.Rank][c] += (hi - lo) / cell
			}
		}
	}
	var sb strings.Builder
	for n := 0; n < ranks; n++ {
		fmt.Fprintf(&sb, "node %2d |", n)
		for c := 0; c < width; c++ {
			switch {
			case cover[n][c] >= 0.99:
				sb.WriteByte('#')
			case cover[n][c] > 0.01:
				sb.WriteByte('+')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// chromeEvent is one entry of the Chrome tracing (catapult) JSON format.
type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`  // microseconds
	Dur   float64 `json:"dur"` // microseconds
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
}

// WriteChromeTrace exports spans in the Chrome tracing JSON array format
// (load via chrome://tracing or https://ui.perfetto.dev): one complete
// event per span of every kind, its category the kind, its thread the
// rank, ordered by start time with the longer span first on a tie so a
// step encloses the compute, phase and receive-wait slices it parents.
// Seconds — or a simulator's virtual time units — map to microseconds.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	spans = append([]Span(nil), spans...)
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].End > spans[b].End
	})
	events := make([]chromeEvent, len(spans))
	for i, sp := range spans {
		name := sp.Name
		switch sp.Kind {
		case SpanSend:
			name = fmt.Sprintf("send→%d (%.0fB) %s", sp.Peer, sp.Bytes, name)
		case SpanRecvWait:
			name = fmt.Sprintf("recv←%d %s", sp.Peer, name)
		}
		if name = strings.TrimSpace(name); name == "" {
			name = sp.Kind.String()
		}
		events[i] = chromeEvent{
			Name:  name,
			Cat:   sp.Kind.String(),
			Phase: "X",
			TS:    sp.Start * 1e6,
			Dur:   (sp.End - sp.Start) * 1e6,
			TID:   sp.Rank,
		}
	}
	return json.NewEncoder(w).Encode(events)
}
