package transport

import (
	"bytes"
	"testing"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/wal"
)

// frame wraps payload in the wal frame for fuzz seeds.
func fuzzFrame(payload []byte) []byte {
	var buf bytes.Buffer
	if err := wal.AppendFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzBinaryFrameDecode throws arbitrary byte streams at the binary
// wire's full receive path — frame extraction, then request and
// response payload decoding — and pins four properties:
//
//   - no panic, ever, on any input;
//   - torn, truncated, and CRC-corrupted frames are rejected at the
//     frame layer, never surfaced as payloads;
//   - a request of the retired kinds 2 and 3 never decodes;
//   - anything the request decoder accepts re-encodes to the identical
//     bytes (the codec is canonical and invents no information), and
//     anything the response decoder accepts reaches an encode/decode
//     fixpoint after one canonicalization.
func FuzzBinaryFrameDecode(f *testing.F) {
	// Valid frames of every message kind.
	for _, req := range []binRequest{
		{id: 1, kind: binMsgXCoord},
		{id: 4, kind: binMsgApply, tok: "tok", op: OpID{ID: 9, Stage: StageInsert},
			inserts: []InsertOp{{List: 1, Share: share(1, 1, 1)}}},
		{id: 5, kind: binMsgLookup, tok: "tok", lists: []merging.ListID{1, 2}},
	} {
		f.Add(fuzzFrame(appendBinRequest(nil, &req)))
	}
	// The retired standalone insert and delete kinds, framed as an old
	// client would: well-formed, and still refused.
	f.Add(fuzzFrame(retiredInsertRequest(2)))
	f.Add(fuzzFrame(retiredDeleteRequest(3)))
	lookup := map[merging.ListID][]posting.EncryptedShare{7: {share(70, 1, 700)}}
	f.Add(fuzzFrame(appendBinOK(nil, 6, binMsgLookup, func(dst []byte) []byte {
		return appendLookupBody(dst, lookup)
	})))
	f.Add(fuzzFrame(appendBinError(nil, 7, binMsgApply, 403, "not in the required group")))
	// Lookup responses the decoder must refuse: a share count that
	// disagrees with the records behind it (short, long, absurd) and a
	// list named twice.
	for _, claimed := range []uint32{1, 3, 1 << 30} {
		f.Add(fuzzFrame(miscountedLookupResponse(claimed)))
	}
	f.Add(fuzzFrame(duplicateListLookupResponse()))
	// Corruptions of a valid frame: flipped CRC byte, torn tail, torn
	// header, trailing garbage, and two concatenated frames.
	base := fuzzFrame(appendBinRequest(nil, &binRequest{id: 8, kind: binMsgXCoord}))
	flipped := append([]byte{}, base...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)
	f.Add(base[:len(base)-3])
	f.Add(base[:2])
	f.Add(append(append([]byte{}, base...), 0xDE, 0xAD))
	f.Add(append(append([]byte{}, base...), base...))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		for {
			// The connections' own reader: frames land in recycled
			// buffers still holding earlier iterations' bytes.
			frame, err := readFrame(br)
			if err != nil {
				// Frame layer rejected the rest of the stream (torn,
				// truncated, corrupt CRC, oversized, or EOF): the payload
				// decoders never see it, exactly as the connection
				// handlers drop the socket on the first framing error.
				return
			}
			payload := frame.b
			if req, err := decodeBinRequest(payload); err == nil {
				if req.kind == 2 || req.kind == 3 {
					t.Fatalf("retired message kind %d decoded: %x", req.kind, payload)
				}
				re := appendBinRequest(nil, &req)
				if !bytes.Equal(re, payload) {
					t.Fatalf("request decode/encode not canonical:\n in %x\nout %x", payload, re)
				}
			}
			if resp, err := decodeBinResponse(payload); err == nil {
				re := reencodeResponse(resp)
				resp2, err := decodeBinResponse(re)
				if err != nil {
					t.Fatalf("re-encoded response does not decode: %v\n in %x\nout %x", err, payload, re)
				}
				if re2 := reencodeResponse(resp2); !bytes.Equal(re, re2) {
					t.Fatalf("response encode/decode has no fixpoint:\n one %x\n two %x", re, re2)
				}
			}
			frame.release()
		}
	})
}

// reencodeResponse rebuilds a response payload from its decoded form,
// using the same encoders the server uses.
func reencodeResponse(resp binResponse) []byte {
	if resp.status != 0 {
		return appendBinError(nil, resp.id, resp.kind, resp.status, resp.msg)
	}
	switch resp.kind {
	case binMsgXCoord:
		x := resp.x
		return appendBinOK(nil, resp.id, resp.kind, func(dst []byte) []byte {
			return appendU64(dst, x)
		})
	case binMsgLookup:
		lists := resp.lists
		return appendBinOK(nil, resp.id, resp.kind, func(dst []byte) []byte {
			return appendLookupBody(dst, lists)
		})
	default:
		return appendBinOK(nil, resp.id, resp.kind, nil)
	}
}
