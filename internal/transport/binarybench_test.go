package transport

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"zerber/internal/merging"
	"zerber/internal/posting"
)

// benchLookupResult builds a lookup response of realistic search shape:
// 16 merged lists of 32 shares each (512 shares), the §7.3 unit the
// wire carries most.
func benchLookupResult() map[merging.ListID][]posting.EncryptedShare {
	out := make(map[merging.ListID][]posting.EncryptedShare, 16)
	var gid posting.GlobalID
	for l := 0; l < 16; l++ {
		shares := make([]posting.EncryptedShare, 32)
		for s := range shares {
			gid++
			shares[s] = share(gid, uint32(l%3+1), uint64(gid)*0x9E3779B97F4A7C15>>3)
		}
		out[merging.ListID(l+1)] = shares
	}
	return out
}

func benchInsertOps(n int) []InsertOp {
	ops := make([]InsertOp, n)
	for i := range ops {
		ops[i] = InsertOp{
			List:  merging.ListID(i % 16),
			Share: share(posting.GlobalID(i+1), uint32(i%3+1), uint64(i+1)*0x9E3779B97F4A7C15>>3),
		}
	}
	return ops
}

// jsonLookup mirrors the HTTP handler's response encoding: list IDs as
// decimal string keys.
func jsonLookup(out map[merging.ListID][]posting.EncryptedShare) map[string][]posting.EncryptedShare {
	enc := make(map[string][]posting.EncryptedShare, len(out))
	for lid, shares := range out {
		enc[strconv.FormatUint(uint64(lid), 10)] = shares
	}
	return enc
}

// BenchmarkEncodeGetPostingLists measures encoding one 512-share lookup
// response — the dominant payload on the search path — through each
// codec. wire-B/op is the encoded size on the wire; B/op and allocs/op
// (from -benchmem) are the encoding cost.
func BenchmarkEncodeGetPostingLists(b *testing.B) {
	out := benchLookupResult()
	b.Run("binary", func(b *testing.B) {
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := make([]byte, 0, 11+binLookupBodySize(out))
			payload := appendBinOK(dst, 1, binMsgLookup, func(dst []byte) []byte {
				return appendLookupBody(dst, out)
			})
			n = len(payload)
		}
		b.ReportMetric(float64(n), "wire-B/op")
	})
	b.Run("json", func(b *testing.B) {
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(jsonLookup(out))
			if err != nil {
				b.Fatal(err)
			}
			n = len(body)
		}
		b.ReportMetric(float64(n), "wire-B/op")
	})
}

// BenchmarkBinaryVsJSONRoundTrip measures a full encode+decode round
// trip of a 64-op insert request — the dominant payload on the mutation
// path — through each codec's exact wire form.
func BenchmarkBinaryVsJSONRoundTrip(b *testing.B) {
	ops := benchInsertOps(64)
	b.Run("binary", func(b *testing.B) {
		req := binRequest{id: 1, kind: binMsgApply, tok: "bench-token", inserts: ops}
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			payload := appendBinRequest(make([]byte, 0, binRequestSize(&req)), &req)
			n = len(payload)
			if _, err := decodeBinRequest(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "wire-B/op")
	})
	b.Run("json", func(b *testing.B) {
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(ops)
			if err != nil {
				b.Fatal(err)
			}
			n = len(body)
			var decoded []InsertOp
			if err := json.Unmarshal(body, &decoded); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "wire-B/op")
	})
}

// BenchmarkBinaryLookupRoundTrip measures one 3,500-share lookup (a
// 70 KB response frame, one server's part of a benchmark search) over a
// loopback connection, server and client in one process: request
// framing, dispatch, the response built in place, the socket, the read
// into a recycled buffer and the decode. B/op is dominated by what
// decoding hands the caller (84 KB of shares); what it is beyond that is
// the transport's own.
func BenchmarkBinaryLookupRoundTrip(b *testing.B) {
	_, c := serveCanned(b)
	lists := []merging.ListID{3, 17, 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.GetPostingLists(context.Background(), "tok", lists)
		if err != nil || len(out) != 3 {
			b.Fatal(err)
		}
	}
}
