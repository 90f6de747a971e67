package net

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hetgrid/internal/matrix"
)

func TestDataFrameRoundTrip(t *testing.T) {
	m := matrix.NewFromSlice(2, 3, []float64{1, -2.5, math.Pi, 0, math.Inf(1), -0})
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, encodeData(7, 11, "L/3", m)); err != nil {
		t.Fatal(err)
	}
	ftype, body, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != frameData {
		t.Fatalf("frame type %d, want %d", ftype, frameData)
	}
	src, dst, tag, got, err := decodeData(body)
	if err != nil {
		t.Fatal(err)
	}
	if src != 7 || dst != 11 || tag != "L/3" {
		t.Fatalf("header (%d,%d,%q), want (7,11,%q)", src, dst, tag, "L/3")
	}
	if !got.Equal(m) {
		t.Fatal("payload not bit-identical after the wire round trip")
	}
}

func TestDataFrameStridedView(t *testing.T) {
	// A submatrix view has row stride > cols; per-row serialization must
	// still capture exactly the viewed cells.
	full := matrix.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			full.Set(i, j, float64(10*i+j))
		}
	}
	view := full.Slice(1, 3, 1, 3)
	_, _, _, got, err := decodeData(encodeData(0, 1, "v", view))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(view) {
		t.Fatal("strided view corrupted by serialization")
	}
}

func TestAbortFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		rank   int
		reason string
	}{
		{3, "crashed at step 5"},
		{-1, "transport closed"},
	} {
		rank, reason, err := decodeAbort(encodeAbort(tc.rank, tc.reason))
		if err != nil {
			t.Fatal(err)
		}
		if rank != tc.rank || reason != tc.reason {
			t.Fatalf("abort (%d,%q), want (%d,%q)", rank, reason, tc.rank, tc.reason)
		}
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, []byte("x")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = frameVersion + 1
	if _, _, err := readFrame(bytes.NewReader(raw), maxFrameSize); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("foreign version accepted: %v", err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, frameVersion, frameData}
	if _, _, err := readFrame(bytes.NewReader(raw), maxFrameSize); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("oversized length prefix accepted: %v", err)
	}
}

func TestDecodeDataRejectsTruncation(t *testing.T) {
	m := matrix.New(2, 2)
	body := encodeData(0, 1, "t", m)
	for _, n := range []int{0, 8, 11, len(body) - 1} {
		if _, _, _, _, err := decodeData(body[:n]); err == nil {
			t.Fatalf("truncated data frame (%d bytes) accepted", n)
		}
	}
}
