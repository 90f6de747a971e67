package main

// Multi-process mode: -listen turns this gridsim into the cluster
// coordinator (it solves the plan and distributes it through the cluster
// handshake), -join turns it into a worker that receives the plan, runs
// its contiguous rank chunk over the framed TCP fabric, and feeds its
// blocks back. Rank 0 (always on the coordinator) gathers the result and
// asserts it bit-identical to the serial replay oracle — the "PARITY OK"
// line CI greps for.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"hetgrid"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/matrix"
)

// netPlan is the opaque payload the coordinator ships through the cluster
// handshake: everything a joiner needs to recompute the distribution and
// run its ranks deterministically — joiners take no kernel flags at all.
type netPlan struct {
	Times    []float64 `json:"times"`
	P        int       `json:"p"`
	Q        int       `json:"q"`
	NB       int       `json:"nb"`
	R        int       `json:"r"`
	Kernel   string    `json:"kernel"`
	Dist     string    `json:"dist"`
	Bcast    string    `json:"bcast"`
	Numerics string    `json:"numerics"`
	Seed     int64     `json:"seed"`
}

// validate refuses a plan no world of world ranks can run, naming the
// field: the p×q grid fills the world, each rank has a finite positive
// cycle-time, and the block count and size are positive. The kernel,
// distribution, broadcast and numerics names are checked where they are
// parsed.
func (p netPlan) validate(world int) error {
	switch {
	case p.P < 1 || p.P > world:
		return fmt.Errorf("plan payload: p = %d, want 1..%d", p.P, world)
	case p.Q < 1 || p.Q > world:
		return fmt.Errorf("plan payload: q = %d, want 1..%d", p.Q, world)
	case p.P*p.Q != world:
		return fmt.Errorf("plan payload: p×q = %d×%d, want %d ranks", p.P, p.Q, world)
	case len(p.Times) != world:
		return fmt.Errorf("plan payload: times has %d cycle-times, want %d", len(p.Times), world)
	case p.NB < 1:
		return fmt.Errorf("plan payload: nb = %d, want ≥ 1", p.NB)
	case p.R < 1:
		return fmt.Errorf("plan payload: r = %d, want ≥ 1", p.R)
	}
	for i, t := range p.Times {
		if !(t > 0) || math.IsInf(t, 1) {
			return fmt.Errorf("plan payload: times[%d] = %v, want a finite cycle-time > 0", i, t)
		}
	}
	return nil
}

// decodePlan is the joiner's reading of the coordinator's payload: one JSON
// object of netPlan's fields and nothing else, valid for a world of world
// ranks.
func decodePlan(blob []byte, world int) (netPlan, error) {
	var pay netPlan
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pay); err != nil {
		return netPlan{}, fmt.Errorf("malformed plan payload: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return netPlan{}, fmt.Errorf("malformed plan payload: trailing data after the plan")
	}
	return pay, pay.validate(world)
}

const (
	handshakeTimeout = 2 * time.Minute
	netCloseTimeout  = 5 * time.Second
)

// runListen is the coordinator: bind, hand the plan to procs-1 joiners,
// then run rank chunk 0 (which includes rank 0, so the inputs, the gather
// and the parity verdict all live here).
func runListen(addr string, procs int, pay netPlan, metrics *hetgrid.Metrics) error {
	if err := pay.validate(pay.P * pay.Q); err != nil {
		return err
	}
	blob, err := json.Marshal(pay)
	if err != nil {
		return err
	}
	co, err := enginenet.NewCoordinator(addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening at %s for %d joiner(s)\n", co.Addr(), procs-1)
	ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout)
	defer cancel()
	fab, err := co.Establish(ctx, pay.P*pay.Q, procs, blob, metrics)
	if err != nil {
		return err
	}
	return runNetProc(fab, pay, metrics)
}

// runJoin is a worker: dial the coordinator (retrying, so start order does
// not matter), receive the plan, check it, run the assigned ranks.
func runJoin(addr string, metrics *hetgrid.Metrics) error {
	ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout)
	defer cancel()
	fab, blob, err := enginenet.Join(ctx, addr, metrics)
	if err != nil {
		return err
	}
	pay, err := decodePlan(blob, fab.World())
	if err != nil {
		return err
	}
	return runNetProc(fab, pay, metrics)
}

// runNetProc is the SPMD part every process runs once its fabric is up:
// recompute the plan deterministically, execute the local ranks through
// the library (one attempt over the fabric), then a done/bye barrier so
// nobody tears the cluster down while a peer still has blocks in flight.
func runNetProc(fab *enginenet.Fabric, pay netPlan, metrics *hetgrid.Metrics) error {
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), netCloseTimeout)
		defer cancel()
		fab.Close(ctx)
	}()

	kernel, err := hetgrid.ParseKernel(pay.Kernel)
	if err != nil {
		return err
	}
	hb, err := hetgrid.ParseBroadcast(pay.Bcast)
	if err != nil {
		return err
	}
	numerics, err := hetgrid.ParseNumerics(pay.Numerics)
	if err != nil {
		return err
	}
	plan, _, err := hetgrid.SolvePlan(hetgrid.PlanRequest{Times: pay.Times, P: pay.P, Q: pay.Q})
	if err != nil {
		return err
	}
	dists, err := buildDistributions(pay.Dist, plan, kernel, pay.NB, pay.P, pay.Q)
	if err != nil {
		return err
	}
	if len(dists) != 1 {
		return fmt.Errorf("multi-process mode needs a single distribution, got %q", pay.Dist)
	}
	d := dists[0].d
	world := pay.P * pay.Q
	n := pay.NB * pay.R
	fmt.Printf("process %d of %d: ranks %v of %d, %s on %d×%d (%s, %s broadcast, %s distribution)\n",
		fab.ProcID(), fab.Procs(), fab.LocalRanks(), world, kernel, n, n, pay.Numerics, hb, dists[0].name)

	// Inputs exist only where rank 0 lives; everyone else receives their
	// blocks through the scatter.
	isCoord := fab.ProcID() == 0
	var a, b *matrix.Dense
	if isCoord {
		if a, b, err = randomInputs(kernel, n, rand.New(rand.NewSource(pay.Seed))); err != nil {
			return err
		}
	}
	out, stats, err := execute(kernel, d, a, b, pay.R, []hetgrid.Option{
		hetgrid.WithBroadcast(hb), hetgrid.WithNumerics(numerics), hetgrid.WithTransport(fab), hetgrid.WithMetrics(metrics)})
	if err != nil {
		return err
	}

	// Completion barrier: workers report done to rank 0's process and wait
	// for the bye (or the closure that follows it) before tearing down, so
	// late gather frames are never raced by an abort frame.
	bctx, bcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer bcancel()
	one := matrix.New(1, 1)
	procs := fab.Procs()
	if isCoord {
		for p := 1; p < procs; p++ {
			lo := enginenet.RanksOf(world, procs, p)[0]
			if _, err := fab.Recv(bctx, lo, 0, "net/done"); err != nil {
				return fmt.Errorf("waiting for process %d to finish: %w", p, err)
			}
		}
		for p := 1; p < procs; p++ {
			lo := enginenet.RanksOf(world, procs, p)[0]
			fab.Send(0, lo, "net/bye", one)
		}
	} else {
		lo := fab.LocalRanks()[0]
		fab.Send(lo, 0, "net/done", one)
		if _, err := fab.Recv(bctx, 0, lo, "net/bye"); err != nil && !errors.Is(err, hetgrid.ErrTransportClosed) {
			return fmt.Errorf("waiting for the coordinator's bye: %w", err)
		}
	}

	ws := fab.WireStats()
	fmt.Printf("wire traffic: %d frames / %d bytes sent, %d frames / %d bytes received\n",
		ws.FramesSent, ws.BytesSent, ws.FramesRecv, ws.BytesRecv)

	if !isCoord {
		return nil
	}
	printStats(dists[0].name, stats)

	// The coordinator holds the gathered result: anchor it to the serial
	// replay oracle, bit for bit.
	var want *matrix.Dense
	if kernel == hetgrid.MatMul {
		want, err = hetgrid.Multiply(d, a, b, hetgrid.WithNumerics(numerics))
	} else {
		var f *hetgrid.Factorization
		if f, err = hetgrid.Factor(kernel, d, a, hetgrid.WithNumerics(numerics)); err == nil {
			want = f.Packed()
		}
	}
	if err != nil {
		return err
	}
	if out == nil || !out.Equal(want) {
		fmt.Println("PARITY FAIL")
		return fmt.Errorf("distributed result differs from the serial replay oracle")
	}
	fmt.Println("PARITY OK")
	return nil
}
