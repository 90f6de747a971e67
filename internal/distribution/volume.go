package distribution

import "math"

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

// qrChunk is the compact-WY chunk width of internal/matrix (QRChunk): QR
// runs one chain round per chunk of its r-column panel.
const qrChunk = 32

// QRCommVolume returns the communication volume of the full distributed
// Householder QR (QRStep's messages) for r×r float64 blocks of blockBytes =
// 8r² bytes each: the panel's gather and scatter, its tau scalings to rank
// 0 (r values), V by block row and Tᵀ, and per chain round each hop of W
// and the broadcast of Tᵀ·W. A round carries W's rows of one chunk; over
// the ⌈r/32⌉ rounds the rows add up to r, so the hops of a chain move one
// block per column in all.
func QRCommVolume(d Distribution, blockBytes float64) (*CommVolume, error) {
	r := int(math.Round(math.Sqrt(blockBytes / 8)))
	rounds := (r + qrChunk - 1) / qrChunk
	return volumeOf(d, blockBytes, func(l *Layout, k int, v *CommVolume) {
		st := l.QRStep(k)
		v.add(blockBytes, st.Gather...)
		v.add(blockBytes, st.Scatter...)
		v.add(blockBytes/float64(r), st.Tau)
		v.add(blockBytes, st.V...)
		v.add(blockBytes, st.T)
		for _, c := range st.Chains {
			sends := len(c.Segs) - 1 + c.Back.Fanout()
			v.Messages += rounds * sends
			v.Bytes += float64(sends*len(c.Cols)) * blockBytes
		}
	})
}

// MasterVolume returns the traffic of one master collective on d — the
// scatter of a matrix from rank 0 to the owners, or a gather back to it —
// over the blocks of region r at step k, blockBytes bytes each: a fold over
// MasterPacks, one message per pack of an owner other than rank 0. Dongarra
// et al. price a master–worker distribution as one message per worker
// sized by its share; the engine cuts each share by block row. The
// engine's Scatter and GatherInto counters match it exactly, which tests
// assert.
func MasterVolume(d Distribution, blockBytes float64, r Region, k int) *CommVolume {
	vol := &CommVolume{}
	for _, p := range MasterPacks(d, r, k) {
		if p.Owner != 0 {
			vol.Messages++
			vol.Bytes += float64(len(p.Cols)) * blockBytes
		}
	}
	return vol
}
