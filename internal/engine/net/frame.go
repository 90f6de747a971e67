// Package net is the engine's real network transport: a framed TCP fabric
// that satisfies the engine's Transport v2 interface, so the distributed
// kernels written for in-process goroutine ranks run unchanged across OS
// processes or hosts. Each process hosts a contiguous chunk of ranks and
// keeps one multiplexed TCP connection per peer process carrying all of
// that pair's (src,dst,tag) channels; messages travel as length-prefixed
// binary frames with a version byte, and a closing process flushes an
// abort frame to every peer so remote Recvs unblock with a *RemoteAbort
// naming the failing rank instead of hanging. A cluster handshake
// (Coordinator/Join) assigns process identities, distributes an opaque
// payload (the plan), meshes the processes, and releases them through a
// ready/start barrier.
package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hetgrid/internal/matrix"
)

// Frame wire format (all integers big-endian, float64 payloads
// little-endian IEEE-754 bits):
//
//	uint32  length of everything after this field (version + type + body)
//	byte    version (frameVersion)
//	byte    type
//	[]byte  body, layout by type
//
// Body layouts:
//
//	data   uint32 src | uint32 dst | uint32 len(tag) | tag |
//	       uint32 rows | uint32 cols | rows·cols float64
//	abort  int32 failing rank (-1 unknown) | reason (rest of body)
//	hello, welcome, meshHello, ready, start: JSON (handshake only)
const (
	frameVersion = 2

	frameData      = 1
	frameAbort     = 2
	frameHello     = 4
	frameWelcome   = 5
	frameMeshHello = 6
	frameReady     = 7
	frameStart     = 8
)

// maxFrameSize bounds a single data-plane frame; a length prefix beyond it
// means a corrupt or hostile stream and fails the connection instead of a
// huge allocation. maxHandshakeFrame is the far smaller bound on the JSON
// frames of the handshake, whose first reader is a listener anyone can
// dial: a hello may not make the coordinator allocate more than this.
const (
	maxFrameSize      = 1 << 30
	maxHandshakeFrame = 1 << 20
)

// writeFrame emits one frame. The writer is typically buffered; callers
// flush when their queue drains.
func writeFrame(w io.Writer, ftype byte, body []byte) error {
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+2))
	hdr[4] = frameVersion
	hdr[5] = ftype
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame of at most limit bytes after the length
// prefix, checking the length — before the body is allocated — and the
// version byte.
func readFrame(r io.Reader, limit uint32) (ftype byte, body []byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 2 || n > limit {
		return 0, nil, fmt.Errorf("net: frame length %d out of range [2, %d]", n, limit)
	}
	if hdr[4] != frameVersion {
		return 0, nil, fmt.Errorf("net: frame version %d, want %d", hdr[4], frameVersion)
	}
	body = make([]byte, n-2)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[5], body, nil
}

// encodeData serializes one tagged message: header ints big-endian, the
// row-major float64 payload as little-endian IEEE-754 bits (written per
// row, so strided views serialize correctly).
func encodeData(src, dst int, tag string, m *matrix.Dense) []byte {
	rows, cols := m.Dims()
	body := make([]byte, 4+4+4+len(tag)+4+4+8*rows*cols)
	binary.BigEndian.PutUint32(body[0:], uint32(src))
	binary.BigEndian.PutUint32(body[4:], uint32(dst))
	binary.BigEndian.PutUint32(body[8:], uint32(len(tag)))
	off := 12 + copy(body[12:], tag)
	binary.BigEndian.PutUint32(body[off:], uint32(rows))
	binary.BigEndian.PutUint32(body[off+4:], uint32(cols))
	off += 8
	for i := 0; off < len(body); i++ { // not i < rows: see decodeData
		for _, v := range m.RawRow(i) {
			binary.LittleEndian.PutUint64(body[off:], math.Float64bits(v))
			off += 8
		}
	}
	return body
}

// decodeData parses a data frame body back into its message. Every length
// in the header is the sender's word: each is checked against the bytes
// that are there by subtraction and division, never by forming a sum or a
// product a hostile value could overflow.
func decodeData(body []byte) (src, dst int, tag string, m *matrix.Dense, err error) {
	if len(body) < 20 {
		return 0, 0, "", nil, fmt.Errorf("net: data frame truncated (%d bytes)", len(body))
	}
	src = int(binary.BigEndian.Uint32(body[0:]))
	dst = int(binary.BigEndian.Uint32(body[4:]))
	tagLen := int(binary.BigEndian.Uint32(body[8:]))
	if tagLen < 0 || tagLen > len(body)-20 {
		return 0, 0, "", nil, fmt.Errorf("net: data frame truncated (%d bytes, tag %d)", len(body), tagLen)
	}
	tag = string(body[12 : 12+tagLen])
	off := 12 + tagLen
	rows := int(binary.BigEndian.Uint32(body[off:]))
	cols := int(binary.BigEndian.Uint32(body[off+4:]))
	off += 8
	payload := len(body) - off
	if rows < 0 || cols < 0 || payload%8 != 0 || !isProduct(payload/8, rows, cols) {
		return 0, 0, "", nil, fmt.Errorf("net: data frame payload %d bytes for %d×%d", payload, rows, cols)
	}
	m = matrix.New(rows, cols)
	// Until the payload is consumed, not i < rows: 2³²−1 rows of no columns
	// are a valid header over an empty payload, and nothing to loop over.
	for i := 0; off < len(body); i++ {
		row := m.RawRow(i)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
	}
	return src, dst, tag, m, nil
}

// isProduct reports n == a·b for non-negative a and b by division: the
// product of two header fields can wrap around to whatever n is.
func isProduct(n, a, b int) bool {
	if a == 0 || b == 0 {
		return n == 0
	}
	return n%a == 0 && n/a == b
}

// encodeAbort serializes a closure notification: the failing rank (-1 when
// the closure carries no blame) and a reason string.
func encodeAbort(rank int, reason string) []byte {
	body := make([]byte, 4+len(reason))
	binary.BigEndian.PutUint32(body[0:], uint32(int32(rank)))
	copy(body[4:], reason)
	return body
}

// decodeAbort parses an abort frame body.
func decodeAbort(body []byte) (rank int, reason string, err error) {
	if len(body) < 4 {
		return 0, "", fmt.Errorf("net: abort frame truncated (%d bytes)", len(body))
	}
	return int(int32(binary.BigEndian.Uint32(body[0:]))), string(body[4:]), nil
}
