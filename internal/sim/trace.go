package sim

import "hetgrid/internal/obs"

// EnableTrace makes every subsequent Compute and Send record one obs.Span
// (virtual time units) — the record a real execution writes, so one
// Gantt/chrome exporter and one busy-time sum serve both.
func (c *Cluster) EnableTrace() { c.spans = []obs.Span{} }

// Spans returns the recorded spans in issue order (nil unless tracing).
func (c *Cluster) Spans() []obs.Span { return c.spans }

// SetLabel names subsequently traced spans (no-op when tracing is off).
func (c *Cluster) SetLabel(label string) { c.label = label }

// record appends a traced run's span; Compute and Send test for tracing
// first, so an untraced run builds no span.
func (c *Cluster) record(sp obs.Span) {
	sp.ID, sp.Name = obs.SpanID(len(c.spans)+1), c.label
	c.spans = append(c.spans, sp)
}
