package distribution

// CommVolume is a closed-form communication estimate for one kernel run
// under a distribution, using the same panel-aggregated message model as
// the simulator and the engine: it is a fold over the step schedule's
// messages (see schedule.go), where a message to k receivers costs k
// point-to-point sends regardless of the star/ring/tree realization.
type CommVolume struct {
	// Messages is the total number of point-to-point sends.
	Messages int
	// Bytes is the total bytes crossing the network.
	Bytes float64
}

// add charges the messages: one send of the stacked blocks per receiver
// other than the root.
func (v *CommVolume) add(blockBytes float64, msgs ...Msg) {
	for _, m := range msgs {
		n := m.Fanout()
		v.Messages += n
		v.Bytes += float64(n*len(m.Blocks)) * blockBytes
	}
}

// volumeOf sums step's messages over every step of d's schedule.
func volumeOf(d Distribution, blockBytes float64, step func(l *Layout, k int, v *CommVolume)) (*CommVolume, error) {
	l, err := NewLayout(d)
	if err != nil {
		return nil, err
	}
	vol := &CommVolume{}
	for k := 0; k < l.NB; k++ {
		step(l, k, vol)
	}
	return vol, nil
}

// MMCommVolume returns the communication volume of the full outer-product
// multiplication on the distribution's block matrix, with blockBytes bytes
// per r×r block. The simulator's traffic counters and the engine's
// flat-broadcast counters match it exactly, which tests assert.
func MMCommVolume(d Distribution, blockBytes float64) (*CommVolume, error) {
	return volumeOf(d, blockBytes, func(l *Layout, k int, v *CommVolume) {
		a, b := l.MMPanels(k)
		v.add(blockBytes, a...)
		v.add(blockBytes, b...)
	})
}

// LUCommVolume returns the communication volume of the full right-looking
// LU factorization (diagonal, L-panel and U-panel broadcasts).
func LUCommVolume(d Distribution, blockBytes float64) (*CommVolume, error) {
	return volumeOf(d, blockBytes, func(l *Layout, k int, v *CommVolume) {
		diagDown, diagRight, lPanel, uPanel := l.LUPanels(k)
		v.add(blockBytes, diagDown, diagRight)
		v.add(blockBytes, lPanel...)
		v.add(blockBytes, uPanel...)
	})
}

// CholeskyCommVolume returns the communication volume of the full
// right-looking Cholesky factorization (diagonal and symmetric L-panel
// broadcasts).
func CholeskyCommVolume(d Distribution, blockBytes float64) (*CommVolume, error) {
	return volumeOf(d, blockBytes, func(l *Layout, k int, v *CommVolume) {
		diagDown, lPanel := l.CholeskyPanels(k)
		v.add(blockBytes, diagDown)
		v.add(blockBytes, lPanel...)
	})
}
