package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"hetgrid/internal/matrix"
)

//
// This file compares implementations of the send path side by side; the
// package ships the winner, the others live here only.
//
//	go test ./internal/engine -run '^$' -bench DevelPanelSend -benchmem
//

// BenchmarkDevelPanelSend times one stacked panel broadcast on a 2×2 world:
// rank 0 stacks four r×r blocks into one payload, as panelSend does, sends
// it along the flat broadcast's three out-edges, and each receiver
// acknowledges it with a 1×1 message. "clone-per-edge" copies the payload
// once per out-edge, as Comm.Send did before it handed its payload over;
// "hand-over" is Comm.Send as it ships. One operation is one panel; B/op and
// allocs/op count every rank.
func BenchmarkDevelPanelSend(b *testing.B) {
	alts := []struct {
		name string
		send func(c *Comm, dst int, tag string, m *matrix.Dense)
	}{
		{"clone-per-edge", func(c *Comm, dst int, tag string, m *matrix.Dense) { c.Send(dst, tag, m.Clone()) }},
		{"hand-over", (*Comm).Send},
	}
	const blocks = 4
	rng := rand.New(rand.NewSource(49))
	ack := matrix.New(1, 1)
	for _, r := range []int{32, 64} {
		parts := make([]*matrix.Dense, blocks)
		for i := range parts {
			parts[i] = matrix.Random(r, r, rng)
		}
		for _, alt := range alts {
			b.Run(fmt.Sprintf("r=%d/%s", r, alt.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				_, err := RunOpts(4, Options{}, func(c *Comm) error {
					for i := 0; i < b.N; i++ {
						tag := "p/" + strconv.Itoa(i)
						if c.Rank() != 0 {
							if got := c.Recv(0, tag); got.Rows() != blocks*r {
								return fmt.Errorf("rank %d: %d rows", c.Rank(), got.Rows())
							}
							c.Send(0, tag+"/ack", ack)
							continue
						}
						panel := stackRows(parts)
						for dst := 1; dst < 4; dst++ {
							alt.send(c, dst, tag, panel)
						}
						for src := 1; src < 4; src++ {
							c.Recv(src, tag+"/ack")
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
