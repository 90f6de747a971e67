package obs

import (
	"sync"
	"time"
)

// SpanID identifies one span within a store; 0 means "no span" (used as
// the parent of root-level spans).
type SpanID int64

// SpanKind classifies a span.
type SpanKind int

const (
	// SpanCompute is CPU work on one rank — the spans per-rank busy time
	// is computed from.
	SpanCompute SpanKind = iota
	// SpanSend is one message transfer (enqueue → delivery) between ranks.
	SpanSend
	// SpanStep is one kernel panel step on one rank; compute and phase
	// spans of that step link to it as their parent.
	SpanStep
	// SpanPhase is a sub-step section (a collective, a solve phase); it may
	// include blocking waits, unlike SpanCompute.
	SpanPhase
	// SpanRecvWait is the time one rank spent blocked in one Recv: Rank is
	// the receiver, Peer the source, Name the tag. It is idle time — where
	// a rank's wall clock went when it was neither computing nor sending.
	SpanRecvWait
)

func (k SpanKind) String() string {
	switch k {
	case SpanCompute:
		return "compute"
	case SpanSend:
		return "send"
	case SpanStep:
		return "step"
	case SpanPhase:
		return "phase"
	case SpanRecvWait:
		return "recv-wait"
	default:
		return "span"
	}
}

// Span is one timed, named, rank-attributed interval — the one record of a
// run, written by the engine (measured) and by the simulator (predicted)
// alike. Parent links spans into per-rank hierarchies (rank → step →
// compute/phase/recv-wait); send spans are attributed to the sending rank
// with Peer naming the receiver.
type Span struct {
	ID     SpanID
	Parent SpanID
	Rank   int
	Kind   SpanKind
	Name   string
	Peer   int     // receiver of a send, source of a recv-wait; -1 otherwise
	Bytes  float64 // payload size for sends; 0 otherwise
	// Start and End are seconds since the store was created (an engine's
	// spans) or virtual time units (a simulator's).
	Start, End float64
}

// SpanStore collects completed spans. Begin/End track open spans;
// completed spans append in completion order.
type SpanStore struct {
	start time.Time

	mu    sync.Mutex
	next  SpanID
	open  map[SpanID]Span
	spans []Span
}

// NewSpanStore returns an empty store; span timestamps count seconds from
// this call.
func NewSpanStore() *SpanStore {
	return &SpanStore{start: time.Now(), open: map[SpanID]Span{}}
}

// Now returns seconds since the store was created — the clock every span
// timestamp uses.
func (s *SpanStore) Now() float64 { return time.Since(s.start).Seconds() }

// Begin opens a span and returns its ID; close it with End. peer is -1
// for non-send spans.
func (s *SpanStore) Begin(rank int, kind SpanKind, name string, parent SpanID) SpanID {
	now := s.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := s.next
	s.open[id] = Span{ID: id, Parent: parent, Rank: rank, Kind: kind, Name: name, Peer: -1, Start: now}
	return id
}

// End completes an open span; unknown or already-ended IDs (including 0)
// are ignored, so callers can end unconditionally.
func (s *SpanStore) End(id SpanID) {
	if id == 0 {
		return
	}
	now := s.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.open[id]
	if !ok {
		return
	}
	delete(s.open, id)
	sp.End = now
	s.spans = append(s.spans, sp)
}

// Record appends an already-completed span (the engine uses it for send
// and recv-wait spans, whose start it tracked itself) and returns its ID.
func (s *SpanStore) Record(sp Span) SpanID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	sp.ID = s.next
	s.spans = append(s.spans, sp)
	return sp.ID
}

// CloseAll ends every span still open — the end-of-run sweep that turns
// dangling step spans of an aborted rank into closed intervals.
func (s *SpanStore) CloseAll() {
	now := s.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sp := range s.open {
		sp.End = now
		s.spans = append(s.spans, sp)
		delete(s.open, id)
	}
}

// Snapshot returns the completed spans in completion order.
func (s *SpanStore) Snapshot() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// Len returns the number of completed spans.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// BusyTimes is busyTimes over the completed spans.
func (s *SpanStore) BusyTimes(n int) []float64 { return busyTimes(s.Snapshot(), n) }

// BusyOf sums one rank's completed compute-span durations without copying
// the store — the live single-rank form of BusyTimes, cheap enough to call
// from a kernel step hook.
func (s *SpanStore) BusyOf(rank int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	busy := 0.0
	for _, sp := range s.spans {
		if sp.Kind == SpanCompute && sp.Rank == rank {
			busy += sp.End - sp.Start
		}
	}
	return busy
}

// Imbalance is the max/mean of a busy-time vector — the measured form of
// the paper's Obj1 (makespan over the (Σr)(Σc) balance bound): 1 is
// perfect balance, larger means the slowest rank dominates. Empty or
// all-zero vectors report 0.
func Imbalance(busy []float64) float64 {
	if len(busy) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, b := range busy {
		if b > max {
			max = b
		}
		sum += b
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(busy)))
}
