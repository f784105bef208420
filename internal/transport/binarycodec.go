package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// The binary wire codec. Every message travels as one internal/wal
// variable-length frame (4-byte length + payload + CRC-32 over both), so
// torn and corrupted frames are detected by the same machinery that
// guards the journal and the disk log. Frame payloads are fixed-width
// little-endian records — no field names, no escaping, no base-10
// integers — sized exactly by the §7.3 wire constants: an insert op is
// ListIDBytes+ShareBytes (24) bytes, a delete op ListIDBytes+8 (12), a
// share in a lookup response ShareBytes (20).
//
// Request payload layout:
//
//	offset  size  field
//	0       8     request ID (pipelining correlation tag)
//	8       1     message kind (binMsg*)
//	9       2     token length T
//	11      T     token bytes
//	11+T    ...   kind-specific body (see appendBinRequest)
//
// Response payload layout:
//
//	offset  size  field
//	0       8     request ID being answered
//	8       1     message kind echoed from the request
//	9       2     status (0 = OK; otherwise the HTTP-equivalent code)
//	11      ...   OK: kind-specific body; error: 2-byte length + message
//
// Multi-element bodies carry a 4-byte count followed by that many
// fixed-width records; a count that does not match the remaining bytes
// exactly is rejected, so a frame decodes to precisely one value or to
// an error — never to a value plus trailing garbage.
//
// Kinds 2 and 3 were the standalone insert and delete calls. They stay
// reserved: a frame carrying one is answered as an unknown kind, never
// reassigned and misread.
const (
	binMsgXCoord       byte = 1
	binMsgApply        byte = 4
	binMsgLookup       byte = 5
	binMsgLookupBlocks byte = 6
)

// Fixed record sizes of the codec, in bytes.
const (
	binInsertSize = ListIDBytes + ShareBytes
	binDeleteSize = ListIDBytes + 8
	binShareSize  = ShareBytes
	// binRespHeaderSize is the request ID, kind and status that open
	// every response payload.
	binRespHeaderSize = 8 + 1 + 2
)

// errBinMalformed reports a structurally invalid frame payload.
var errBinMalformed = errors.New("transport: malformed binary message")

// binRequest is the decoded form of one request frame.
type binRequest struct {
	id   uint64
	kind byte
	tok  auth.Token

	op      OpID       // apply
	inserts []InsertOp // apply
	deletes []DeleteOp // apply
	lists   []merging.ListID

	list merging.ListID // lookupblocks
	from uint32         // lookupblocks
	n    uint32         // lookupblocks
}

// binResponse is the decoded form of one response frame.
type binResponse struct {
	id     uint64
	kind   byte
	status uint16 // 0 = OK, else the HTTP-equivalent error code
	msg    string // error message when status != 0

	x     uint64 // xcoord
	lists map[merging.ListID][]posting.EncryptedShare
	page  BlockPage // lookupblocks
}

func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// appendShares encodes a 4-byte count and that many fixed-width share
// records. The room is claimed once and the records are written by
// position, so the loop pays no per-field growth check; a dst sized by
// the *BodySize functions is never reallocated.
func appendShares(dst []byte, shares []posting.EncryptedShare) []byte {
	dst = appendU32(dst, uint32(len(shares)))
	off := len(dst)
	dst = slices.Grow(dst, len(shares)*binShareSize)[:off+len(shares)*binShareSize]
	for _, sh := range shares {
		rec := dst[off : off+binShareSize]
		binary.LittleEndian.PutUint64(rec, uint64(sh.GlobalID))
		binary.LittleEndian.PutUint32(rec[8:], sh.Group)
		binary.LittleEndian.PutUint64(rec[12:], sh.Y.Uint64())
		off += binShareSize
	}
	return dst
}

func appendInsertOps(dst []byte, ops []InsertOp) []byte {
	dst = appendU32(dst, uint32(len(ops)))
	for _, op := range ops {
		dst = appendU32(dst, uint32(op.List))
		dst = appendU64(dst, uint64(op.Share.GlobalID))
		dst = appendU32(dst, op.Share.Group)
		dst = appendU64(dst, op.Share.Y.Uint64())
	}
	return dst
}

func appendDeleteOps(dst []byte, ops []DeleteOp) []byte {
	dst = appendU32(dst, uint32(len(ops)))
	for _, op := range ops {
		dst = appendU32(dst, uint32(op.List))
		dst = appendU64(dst, uint64(op.ID))
	}
	return dst
}

// binRequestSize returns the exact encoded payload size of r, so
// encoders allocate once instead of growing through appends.
func binRequestSize(r *binRequest) int {
	n := 8 + 1 + 2 + len(r.tok)
	switch r.kind {
	case binMsgApply:
		n += OpIDBytes + 4 + len(r.inserts)*binInsertSize + 4 + len(r.deletes)*binDeleteSize
	case binMsgLookup:
		n += 4 + len(r.lists)*ListIDBytes
	case binMsgLookupBlocks:
		n += BlockReqBytes
	}
	return n
}

// binLookupBodySize returns the exact encoded size of a lookup body.
func binLookupBodySize(out map[merging.ListID][]posting.EncryptedShare) int {
	n := 4
	for _, shares := range out {
		n += ListIDBytes + 4 + len(shares)*binShareSize
	}
	return n
}

// appendBinRequest encodes one request into dst and returns it.
func appendBinRequest(dst []byte, r *binRequest) []byte {
	dst = appendU64(dst, r.id)
	dst = append(dst, r.kind)
	dst = appendU16(dst, uint16(len(r.tok)))
	dst = append(dst, r.tok...)
	switch r.kind {
	case binMsgXCoord:
	case binMsgApply:
		dst = appendU64(dst, r.op.ID)
		dst = append(dst, r.op.Stage)
		dst = appendInsertOps(dst, r.inserts)
		dst = appendDeleteOps(dst, r.deletes)
	case binMsgLookup:
		dst = appendU32(dst, uint32(len(r.lists)))
		for _, lid := range r.lists {
			dst = appendU32(dst, uint32(lid))
		}
	case binMsgLookupBlocks:
		dst = appendU32(dst, uint32(r.list))
		dst = appendU32(dst, r.from)
		dst = appendU32(dst, r.n)
	}
	return dst
}

// binReader walks a frame payload with bounds checking; any short read
// flips err and every later read returns zeros, so decode paths check
// once at the end.
type binReader struct {
	p   []byte
	err bool
}

func (r *binReader) take(n int) []byte {
	if r.err || len(r.p) < n {
		r.err = true
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *binReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a 4-byte element count and verifies the remaining payload
// can actually hold that many size-byte records, so a corrupt count
// cannot demand a huge allocation.
func (r *binReader) count(size int) int {
	n := r.u32()
	if r.err || int(n) > len(r.p)/size {
		r.err = true
		return 0
	}
	return int(n)
}

// shares reads a 4-byte count and that many fixed-width share records
// into a slice from posting's pool (empty for none), which the caller
// owns alone. The count is checked against the remaining bytes once,
// which covers every record, so the loop pays one bounds check per
// record instead of one per field.
func (r *binReader) shares() []posting.EncryptedShare {
	n := r.count(binShareSize)
	b := r.take(n * binShareSize)
	out := posting.GetShares(n)
	for i := range out {
		rec := b[i*binShareSize : (i+1)*binShareSize]
		out[i] = posting.EncryptedShare{
			GlobalID: posting.GlobalID(binary.LittleEndian.Uint64(rec)),
			Group:    binary.LittleEndian.Uint32(rec[8:]),
			Y:        field.Element(binary.LittleEndian.Uint64(rec[12:])),
		}
	}
	return out
}

func (r *binReader) insertOps() []InsertOp {
	n := r.count(binInsertSize)
	if r.err || n == 0 {
		return nil
	}
	ops := make([]InsertOp, n)
	for i := range ops {
		ops[i].List = merging.ListID(r.u32())
		ops[i].Share.GlobalID = posting.GlobalID(r.u64())
		ops[i].Share.Group = r.u32()
		ops[i].Share.Y = field.Element(r.u64())
	}
	return ops
}

func (r *binReader) deleteOps() []DeleteOp {
	n := r.count(binDeleteSize)
	if r.err || n == 0 {
		return nil
	}
	ops := make([]DeleteOp, n)
	for i := range ops {
		ops[i].List = merging.ListID(r.u32())
		ops[i].ID = posting.GlobalID(r.u64())
	}
	return ops
}

// decodeBinRequest decodes one request frame payload. The request ID is
// returned even on malformed bodies (when at least the header decodes),
// so the server can answer with an addressed error instead of dropping
// the connection.
func decodeBinRequest(payload []byte) (binRequest, error) {
	r := binReader{p: payload}
	var req binRequest
	req.id = r.u64()
	req.kind = r.u8()
	tokLen := int(r.u16())
	req.tok = auth.Token(r.take(tokLen))
	if r.err {
		return req, fmt.Errorf("%w: truncated request header", errBinMalformed)
	}
	switch req.kind {
	case binMsgXCoord:
	case binMsgApply:
		req.op.ID = r.u64()
		req.op.Stage = r.u8()
		req.inserts = r.insertOps()
		req.deletes = r.deleteOps()
	case binMsgLookup:
		n := r.count(ListIDBytes)
		if !r.err && n > 0 {
			req.lists = make([]merging.ListID, n)
			for i := range req.lists {
				req.lists[i] = merging.ListID(r.u32())
			}
		}
	case binMsgLookupBlocks:
		req.list = merging.ListID(r.u32())
		req.from = r.u32()
		req.n = r.u32()
	default:
		return req, fmt.Errorf("%w: unknown message kind %d", errBinMalformed, req.kind)
	}
	if r.err {
		return req, fmt.Errorf("%w: truncated %s body", errBinMalformed, binKindName(req.kind))
	}
	if len(r.p) != 0 {
		return req, fmt.Errorf("%w: %d trailing bytes", errBinMalformed, len(r.p))
	}
	return req, nil
}

// appendBinOK encodes a success response carrying body, which must have
// been produced by one of the body encoders below (or be empty).
func appendBinOK(dst []byte, id uint64, kind byte, body func([]byte) []byte) []byte {
	dst = appendU64(dst, id)
	dst = append(dst, kind)
	dst = appendU16(dst, 0)
	if body != nil {
		dst = body(dst)
	}
	return dst
}

// appendBinError encodes an addressed error response.
func appendBinError(dst []byte, id uint64, kind byte, status uint16, msg string) []byte {
	if len(msg) > 4096 {
		msg = msg[:4096]
	}
	dst = appendU64(dst, id)
	dst = append(dst, kind)
	dst = appendU16(dst, status)
	dst = appendU16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// appendLookupBody encodes a posting-list map in canonical form: lists
// sorted by ID, shares in server order. Canonical ordering makes the
// encoding deterministic, which the fuzz round-trip check relies on.
func appendLookupBody(dst []byte, out map[merging.ListID][]posting.EncryptedShare) []byte {
	lids := make([]merging.ListID, 0, len(out))
	for lid := range out {
		lids = append(lids, lid)
	}
	slices.Sort(lids)
	dst = appendU32(dst, uint32(len(lids)))
	for _, lid := range lids {
		dst = appendShares(appendU32(dst, uint32(lid)), out[lid])
	}
	return dst
}

// binBlockBodySize returns the exact encoded size of a paged-lookup
// response body: the fixed-width page header plus the shares.
func binBlockBodySize(page BlockPage) int {
	return BlockHeaderBytes + len(page.Shares)*binShareSize
}

// appendBlockBody encodes one score-ordered page: a fixed-width header
// (total, next bucket, share count) followed by the share records.
func appendBlockBody(dst []byte, page BlockPage) []byte {
	dst = appendU32(dst, uint32(page.Total))
	return appendShares(append(dst, page.Next), page.Shares)
}

// decodeBinResponse decodes one response frame payload.
func decodeBinResponse(payload []byte) (binResponse, error) {
	r := binReader{p: payload}
	var resp binResponse
	resp.id = r.u64()
	resp.kind = r.u8()
	resp.status = r.u16()
	if r.err {
		return resp, fmt.Errorf("%w: truncated response header", errBinMalformed)
	}
	if resp.status != 0 {
		msgLen := int(r.u16())
		resp.msg = string(r.take(msgLen))
		if r.err || len(r.p) != 0 {
			return resp, fmt.Errorf("%w: malformed error response", errBinMalformed)
		}
		return resp, nil
	}
	switch resp.kind {
	case binMsgXCoord:
		resp.x = r.u64()
	case binMsgApply:
	case binMsgLookupBlocks:
		resp.page.Total = int(r.u32())
		resp.page.Next = r.u8()
		resp.page.Shares = r.shares()
	case binMsgLookup:
		nLists := r.count(8) // at least list ID + share count per list
		resp.lists = make(map[merging.ListID][]posting.EncryptedShare, nLists)
		for i := 0; i < nLists && !r.err; i++ {
			lid := merging.ListID(r.u32())
			shares := r.shares()
			if _, dup := resp.lists[lid]; dup {
				return resp, fmt.Errorf("%w: duplicate list %d in response", errBinMalformed, lid)
			}
			resp.lists[lid] = shares
		}
	default:
		return resp, fmt.Errorf("%w: unknown message kind %d", errBinMalformed, resp.kind)
	}
	if r.err {
		return resp, fmt.Errorf("%w: truncated %s response body", errBinMalformed, binKindName(resp.kind))
	}
	if len(r.p) != 0 {
		return resp, fmt.Errorf("%w: %d trailing bytes", errBinMalformed, len(r.p))
	}
	return resp, nil
}

// binPeekID extracts the request ID and kind from a payload whose body
// failed to decode, so the server can answer malformed-but-framed
// requests with an addressed 400 instead of dropping the connection.
func binPeekID(payload []byte) (id uint64, kind byte, ok bool) {
	if len(payload) < 9 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(payload), payload[8], true
}

func binKindName(kind byte) string {
	switch kind {
	case binMsgXCoord:
		return "xcoord"
	case binMsgApply:
		return "apply"
	case binMsgLookup:
		return "lookup"
	case binMsgLookupBlocks:
		return "lookupblocks"
	}
	return fmt.Sprintf("kind%d", kind)
}
