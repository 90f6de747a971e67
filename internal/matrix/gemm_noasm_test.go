//go:build !amd64

package matrix

import "testing"

// forceGoTile is a no-op off amd64: the pure-Go register tile is the only
// one there.
func forceGoTile(*testing.T) {}

// forceNoFMA is a no-op off amd64: Fast always runs the Strict path there.
func forceNoFMA(*testing.T) {}

// forceNoAVX512 is a no-op off amd64: there are no ZMM tiles there.
func forceNoAVX512(*testing.T) {}
