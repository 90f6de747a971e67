package main

// Network calibration (-net): stand up a real two-process loopback
// cluster, measure ping-pong one-way times across the TCP fabric, fit the
// paper's α–β linear cost model by least squares, then time an actual
// broadcast round for each of the four broadcast kinds and compare the
// wall-clock against the simulator's prediction under the fitted
// parameters. The whole report lands in a JSON file (BENCH_net.json) so
// the α–β the simulator runs with is pinned to a measurement.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"hetgrid"
	"hetgrid/internal/engine"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// netReport is the BENCH_net.json schema.
type netReport struct {
	World     int                  `json:"world"`
	Procs     int                  `json:"procs"`
	Reps      int                  `json:"reps"`
	Samples   []hetgrid.CommSample `json:"pingpong_samples"`
	Alpha     float64              `json:"alpha_seconds"`
	Beta      float64              `json:"beta_seconds_per_byte"`
	R2        float64              `json:"r2"`
	Broadcast []bcastRow           `json:"broadcast"`
}

// bcastRow compares one broadcast kind: simulator-predicted completion
// under the fitted α–β against the measured wall-clock (which includes a
// three-message completion fan-in back to the root, so small payloads read
// slightly high).
type bcastRow struct {
	Kind      string  `json:"kind"`
	Bytes     int     `json:"bytes"`
	Predicted float64 `json:"predicted_seconds"`
	Measured  float64 `json:"measured_seconds"`
}

const (
	netWorld = 4
	netProcs = 2
)

// netCalibrate runs the full -net round and writes the report to outPath.
func netCalibrate(reps int, outPath string) error {
	// Both processes of a world-4 cluster run inside this one, over real
	// TCP sockets on the loopback interface: index 0 hosts ranks {0,1},
	// index 1 hosts {2,3}.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	fabs, _, err := enginenet.Loopback(ctx, netWorld, netProcs, nil)
	cancel()
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, f := range fabs {
			f.Close(ctx)
		}
	}()

	samples, err := pingPong(fabs, reps)
	if err != nil {
		return err
	}
	alpha, beta, r2, err := hetgrid.FitAlphaBeta(samples)
	if err != nil {
		return err
	}
	fmt.Printf("α = %.3gs  β = %.3gs/B (%.1f MB/s)  r² = %.4f over %d sizes\n",
		alpha, beta, 1/beta/1e6, r2, len(samples))

	rows, err := broadcastRounds(fabs, reps, alpha, beta)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("%-9s broadcast of %d B: predicted %.3gs, measured %.3gs\n",
			row.Kind, row.Bytes, row.Predicted, row.Measured)
	}

	rep := netReport{
		World: netWorld, Procs: netProcs, Reps: reps,
		Samples: samples, Alpha: alpha, Beta: beta, R2: r2,
		Broadcast: rows,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// pingPong measures one-way times rank 0 ↔ rank 2 (distinct processes, so
// every byte crosses a socket): for each size the minimum over reps
// round-trips, halved. Minimum — not mean — because scheduling noise only
// ever adds time; the floor is the fabric.
func pingPong(fabs []*enginenet.Fabric, reps int) ([]hetgrid.CommSample, error) {
	var samples []hetgrid.CommSample
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for floats := 1; floats <= 1<<15; floats *= 4 {
		payload := matrix.New(floats, 1)
		bytes := 8 * floats
		best := 0.0
		for rep := -1; rep < reps; rep++ { // rep -1 warms the path
			tag := fmt.Sprintf("cal/pp/%d/%d", floats, rep)
			echoErr := make(chan error, 1)
			go func() {
				m, err := fabs[1].Recv(ctx, 0, 2, tag)
				if err == nil {
					fabs[1].Send(2, 0, tag, m)
				}
				echoErr <- err
			}()
			t0 := time.Now()
			fabs[0].Send(0, 2, tag, payload)
			if _, err := fabs[0].Recv(ctx, 2, 0, tag); err != nil {
				return nil, fmt.Errorf("ping-pong at %d B: %w", bytes, err)
			}
			rtt := time.Since(t0).Seconds()
			if err := <-echoErr; err != nil {
				return nil, fmt.Errorf("echo side at %d B: %w", bytes, err)
			}
			if rep >= 0 && (best == 0 || rtt < best) {
				best = rtt
			}
		}
		samples = append(samples, hetgrid.CommSample{Bytes: bytes, Seconds: best / 2})
	}
	return samples, nil
}

// broadcastRounds times a real root-0 broadcast to the whole world for
// each broadcast kind and pairs it with the simulator's prediction under
// the fitted parameters. Completion is detected by a 1×1 ack from every
// receiver, which costs three extra small messages at the root.
func broadcastRounds(fabs []*enginenet.Fabric, reps int, alpha, beta float64) ([]bcastRow, error) {
	const floats = 1 << 13 // 64 KiB payload, squarely in the linear regime
	payload := matrix.New(floats, 1)
	bytes := 8 * floats

	kinds := []struct {
		pub hetgrid.BroadcastKind
		sim sim.BroadcastKind
	}{
		{hetgrid.FlatBroadcast, sim.StarBroadcast},
		{hetgrid.RingBroadcast, sim.RingBroadcast},
		{hetgrid.PipelinedRingBroadcast, sim.SegmentedRingBroadcast},
		{hetgrid.TreeBroadcast, sim.TreeBroadcast},
	}
	all := []int{0, 1, 2, 3}
	ack := matrix.New(1, 1)

	var rows []bcastRow
	for _, k := range kinds {
		name := k.pub.String()
		best := 0.0
		body := func(c *engine.Comm) error {
			co := engine.NewCollectivesKind(c, k.sim)
			for rep := -1; rep < reps; rep++ {
				tag := fmt.Sprintf("cal/bc/%s/%d", name, rep)
				var data *matrix.Dense
				if c.Rank() == 0 {
					data = payload
				}
				t0 := time.Now()
				co.Bcast(tag, 0, all, data, floats)
				if c.Rank() == 0 {
					for r := 1; r < netWorld; r++ {
						c.Recv(r, tag+"/ack")
					}
					if el := time.Since(t0).Seconds(); rep >= 0 && (best == 0 || el < best) {
						best = el
					}
				} else {
					c.Send(0, tag+"/ack", ack)
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make([]error, len(fabs))
		for i, fab := range fabs {
			wg.Add(1)
			go func(i int, fab *enginenet.Fabric) {
				defer wg.Done()
				_, errs[i] = engine.RunOpts(netWorld, engine.Options{
					Broadcast:  k.sim,
					Transport:  fab,
					LocalRanks: fab.LocalRanks(),
				}, body)
			}(i, fab)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s broadcast round, process %d: %w", name, i, err)
			}
		}
		pred, err := hetgrid.PredictBroadcast(k.pub, netWorld, bytes, alpha, beta)
		if err != nil {
			return nil, err
		}
		rows = append(rows, bcastRow{Kind: name, Bytes: bytes, Predicted: pred, Measured: best})
	}
	return rows, nil
}
