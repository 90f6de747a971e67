package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"hetgrid/internal/plancache"
)

//
// This file compares implementations of the batch path's item decoding
// side by side; the handler ships the winner, the others live here only.
//
//	go test ./internal/service -run '^$' -bench DevelBatchDecode -benchmem
//

// resolveFn turns a batch's raw items into the items the fan-out solves,
// filling out[i] for the ones that fail; it returns the items and the
// number that failed.
type resolveFn func(s *Server, raws []json.RawMessage, out []BatchItem) ([]*item, int)

// perBatch is the decoding the handler had before the item memo: each
// distinct item body of a batch is decoded, validated, quantized and keyed
// once per batch, and forgotten with it.
func perBatch(s *Server, raws []json.RawMessage, out []BatchItem) ([]*item, int) {
	type decoded struct {
		it  *item
		err error
	}
	its := make([]*item, len(raws))
	invalid := 0
	seen := make(map[string]*decoded, len(raws))
	for i, raw := range raws {
		d, ok := seen[string(raw)]
		if !ok {
			d = &decoded{}
			req, err := decodeBatchItem(raw)
			if d.err = err; err == nil {
				qreq := req.Quantized(s.digits)
				d.it = &item{raw: raw, req: qreq, key: qreq.Key(s.digits)}
			}
			seen[string(raw)] = d
		}
		if d.err != nil {
			out[i] = BatchItem{Status: http.StatusUnprocessableEntity, Error: d.err.Error()}
			invalid++
			continue
		}
		its[i] = d.it
	}
	return its, invalid
}

// perServer is what the handler ships: the server-wide item memo.
func perServer(s *Server, raws []json.RawMessage, out []BatchItem) ([]*item, int) {
	its, invalid, _ := s.resolve(raws, out)
	return its, invalid
}

// answer is the handler's batch path without HTTP, headers and metrics:
// envelope decode, resolve, fan-out and encode.
func answer(s *Server, body []byte, resolve resolveFn) []byte {
	raws, err := DecodeBatch(bytes.NewReader(body), s.maxBatch)
	if err != nil {
		panic(err)
	}
	items := make([]BatchItem, len(raws))
	its, _ := resolve(s, raws, items)
	s.batchSolve(its, items)
	var buf bytes.Buffer
	BatchResponse{Results: items}.encode(&buf)
	return buf.Bytes()
}

// zipfStream is a plan-hot-like stream: batches of 32 heuristic 2×3
// request bodies drawn Zipf(1.1) over 16 times the default cache's 1024
// entries, one body in 64 invalid.
func zipfStream(batches int) [][]byte {
	rng := rand.New(rand.NewSource(3000))
	keys := make([]string, 16*1024)
	for i := range keys {
		times := make([]string, 6)
		for j := range times {
			times[j] = fmt.Sprintf("%.4f", 0.5+4*rng.Float64())
		}
		if i%64 == 63 {
			times[0] = "-1"
		}
		keys[i] = `{"times":[` + strings.Join(times, ",") + `],"p":2,"q":3,"strategy":"heuristic"}`
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	stream := make([][]byte, batches)
	for b := range stream {
		items := make([]string, 32)
		for i := range items {
			items[i] = keys[zipf.Uint64()]
		}
		stream[b] = []byte("[" + strings.Join(items, ",") + "]")
	}
	return stream
}

var develAlternatives = []struct {
	name    string
	resolve resolveFn
}{
	{"per-batch", perBatch},
	{"server-memo", perServer},
}

// TestDevelBatchDecodeAlternativesAgree keeps the bench honest: over the
// stream, the two decodings give byte-identical answers, each on its own
// server fed the same batches in the same order. The caches hold every key:
// which keys a full cache evicts depends on the order the fan-out's
// workers happen to reach it.
func TestDevelBatchDecodeAlternativesAgree(t *testing.T) {
	stream := zipfStream(500)
	cfg := func() Config { return Config{Cache: plancache.New(plancache.Config{MaxEntries: 64 * 1024})} }
	servers := []*Server{New(cfg()), New(cfg())}
	for b, body := range stream {
		want := answer(servers[0], body, develAlternatives[0].resolve)
		if got := answer(servers[1], body, develAlternatives[1].resolve); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: %s answers\n%.400s\n%s answers\n%.400s",
				b, develAlternatives[1].name, got, develAlternatives[0].name, want)
		}
	}
}

var answerSink []byte

// BenchmarkDevelBatchDecode times one batch of the Zipf stream through
// answer, per decoding, on a server warmed by the stream's first 2,000
// batches, as plan-hot's setup and first seconds warm hetgridd.
func BenchmarkDevelBatchDecode(b *testing.B) {
	stream := zipfStream(4000)
	warm, timed := stream[:2000], stream[2000:]
	for _, alt := range develAlternatives {
		b.Run(alt.name, func(b *testing.B) {
			s := New(Config{Cache: plancache.New(plancache.Config{})})
			for _, body := range warm {
				answer(s, body, alt.resolve)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answerSink = answer(s, timed[i%len(timed)], alt.resolve)
			}
		})
	}
}
