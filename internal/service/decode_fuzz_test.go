package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the wire decoder: it must
// never panic, a body over the byte limit is ErrTooLarge whatever it
// holds, and any request it accepts must validate, re-encode and decode to
// an equally valid request (the decoder admits nothing the planner would
// choke on).
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"times":[1,2,3,5],"p":2,"q":2}`,
		`{"times":[1,2,3,4,5,6],"p":2,"q":3,"strategy":"exact"}`,
		`{"times":[1,2,3,4,5,6,7],"allow_subset":true,"min_aspect":0.5}`,
		`{"times":[1,2,3,5],"p":2,"q":2,"fixed":true,"kernel":"lu","panel":{"max_bp":8,"max_bq":6}}`,
		`{"times":[0.001,1000,1,1],"p":1,"q":4,"panel":{"cap_bp":16,"cap_bq":16,"row_ordering":"interleaved"}}`,
		`{"times":[]}`,
		`{"times":[-1],"p":1,"q":1}`,
		`{"times":[1],"p":1,"q":1,"strategy":"magic"}`,
		`{"times":[1],"p":1,"q":1,"unknown_field":true}`,
		`{"times":[1e308,1e-308],"p":1,"q":2}`,
		`{"times":[1,2],"p":1,"q":2} trailing`,
		`[1,2,3]`,
		`null`,
		``,
		`{{{{`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data)) // must not panic
		if len(data) > maxRequestBytes && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%d-byte body (limit %d): err = %v, want ErrTooLarge", len(data), maxRequestBytes, err)
		}
		if err != nil {
			return
		}
		// Anything the decoder admits is valid by contract...
		if verr := req.Validate(); verr != nil {
			t.Fatalf("decoder admitted an invalid request %+v: %v", req, verr)
		}
		// ...and survives a JSON round-trip as an equally valid request.
		blob, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, err := DecodeRequest(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, blob)
		}
		if again.P != req.P || again.Q != req.Q || len(again.Times) != len(req.Times) {
			t.Fatalf("round-trip changed the request: %+v vs %+v", again, req)
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the /v1/plans envelope decoder
// (seed corpus: testdata/fuzz/FuzzDecodeBatch, the shapes of
// TestBatchErrorPaths). It must never panic; a body over the byte limit is
// ErrTooLarge whatever it holds; an accepted batch has between one and
// maxItems items, each valid JSON; and re-joining those items into an
// array decodes to the same items.
func FuzzDecodeBatch(f *testing.F) {
	const maxItems = 4 // small, so mutation reaches the over-limit branch
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBatch(bytes.NewReader(data), maxItems) // must not panic
		if len(data) > maxBatchBytes && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%d-byte body (limit %d): err = %v, want ErrTooLarge", len(data), maxBatchBytes, err)
		}
		if err != nil {
			return
		}
		if len(items) < 1 || len(items) > maxItems {
			t.Fatalf("accepted a batch of %d items, want 1..%d", len(items), maxItems)
		}
		joined := []byte{'['}
		for i, it := range items {
			if !json.Valid(it) {
				t.Fatalf("item %d is not valid JSON: %q", i, it)
			}
			if i > 0 {
				joined = append(joined, ',')
			}
			joined = append(joined, it...)
		}
		joined = append(joined, ']')
		again, err := DecodeBatch(bytes.NewReader(joined), maxItems)
		if err != nil {
			t.Fatalf("re-joined batch rejected: %v\n%s", err, joined)
		}
		if len(again) != len(items) {
			t.Fatalf("re-joined batch has %d items, want %d", len(again), len(items))
		}
		for i := range items {
			if !bytes.Equal(again[i], items[i]) {
				t.Fatalf("item %d changed across the round-trip: %q vs %q", i, again[i], items[i])
			}
		}
	})
}
