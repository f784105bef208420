package transport

import (
	"reflect"
	"strings"
	"testing"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

func share(gid posting.GlobalID, group uint32, y uint64) posting.EncryptedShare {
	return posting.EncryptedShare{GlobalID: gid, Group: group, Y: field.New(y)}
}

// sampleRequests covers every message kind, including empty and
// multi-element bodies and boundary values (max field element, max IDs).
func sampleRequests() []binRequest {
	return []binRequest{
		{id: 0, kind: binMsgXCoord},
		{id: 1, kind: binMsgApply, tok: "tok-a", inserts: []InsertOp{
			{List: 5, Share: share(10, 1, 123456789012345)},
			{List: ^merging.ListID(0), Share: share(^posting.GlobalID(0), ^uint32(0), uint64(field.P-1))},
		}},
		{id: 2, kind: binMsgApply, tok: "t"},
		{id: 3, kind: binMsgApply, tok: "tok-b", deletes: []DeleteOp{
			{List: 1, ID: 2}, {List: 3, ID: 4},
		}},
		{id: 4, kind: binMsgApply, tok: "tok-c",
			op:      OpID{ID: 99, Stage: StageInsert},
			inserts: []InsertOp{{List: 7, Share: share(70, 2, 7)}},
			deletes: []DeleteOp{{List: 8, ID: 80}},
		},
		{id: 5, kind: binMsgApply, tok: "tok-d", op: OpID{ID: 100, Stage: StageDelete}},
		{id: ^uint64(0), kind: binMsgLookup, tok: "tok-e", lists: []merging.ListID{3, 1, 2}},
		{id: 7, kind: binMsgLookup, tok: ""},
	}
}

// retiredInsertRequest and retiredDeleteRequest build well-formed
// request payloads of the retired standalone kinds 2 (insert) and 3
// (delete), exactly as a pre-Apply client framed them.
func retiredInsertRequest(id uint64) []byte {
	payload := appendBinRequest(nil, &binRequest{id: id, kind: 2, tok: "tok"})
	return appendInsertOps(payload, []InsertOp{{List: 5, Share: share(10, 1, 100)}})
}

func retiredDeleteRequest(id uint64) []byte {
	payload := appendBinRequest(nil, &binRequest{id: id, kind: 3, tok: "tok"})
	return appendDeleteOps(payload, []DeleteOp{{List: 5, ID: 10}})
}

// duplicateListLookupResponse is a lookup response naming list 7 twice,
// once with a share and once empty.
func duplicateListLookupResponse() []byte {
	return appendBinOK(nil, 1, binMsgLookup, func(dst []byte) []byte {
		dst = appendU32(dst, 2)
		dst = appendLookupBody(dst, map[merging.ListID][]posting.EncryptedShare{7: {share(70, 1, 700)}})[4:]
		dst = appendU32(dst, 7)
		return appendU32(dst, 0)
	})
}

// miscountedLookupResponse is a one-list lookup response whose share
// count says claimed while two share records follow.
func miscountedLookupResponse(claimed uint32) []byte {
	return appendBinOK(nil, 1, binMsgLookup, func(dst []byte) []byte {
		dst = appendU32(dst, 1)
		dst = appendU32(dst, 7)
		dst = appendU32(dst, claimed)
		for _, sh := range []posting.EncryptedShare{share(70, 1, 700), share(71, 1, 710)} {
			dst = appendU64(dst, uint64(sh.GlobalID))
			dst = appendU32(dst, sh.Group)
			dst = appendU64(dst, sh.Y.Uint64())
		}
		return dst
	})
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, want := range sampleRequests() {
		payload := appendBinRequest(nil, &want)
		got, err := decodeBinRequest(payload)
		if err != nil {
			t.Fatalf("decode %s request: %v", binKindName(want.kind), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s request round trip:\n got %+v\nwant %+v", binKindName(want.kind), got, want)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	lookup := map[merging.ListID][]posting.EncryptedShare{
		2: {share(20, 1, 200), share(21, 2, uint64(field.P-1))},
		9: {},
		1: {share(10, 1, 100)},
	}
	cases := []struct {
		name    string
		payload []byte
		want    binResponse
	}{
		{"xcoord", appendBinOK(nil, 1, binMsgXCoord, func(dst []byte) []byte {
			return appendU64(dst, 42)
		}), binResponse{id: 1, kind: binMsgXCoord, x: 42}},
		{"apply-ok", appendBinOK(nil, 2, binMsgApply, nil),
			binResponse{id: 2, kind: binMsgApply}},
		{"lookup", appendBinOK(nil, 3, binMsgLookup, func(dst []byte) []byte {
			return appendLookupBody(dst, lookup)
		}), binResponse{id: 3, kind: binMsgLookup, lists: map[merging.ListID][]posting.EncryptedShare{
			1: {share(10, 1, 100)},
			2: {share(20, 1, 200), share(21, 2, uint64(field.P-1))},
			9: {},
		}}},
		{"error", appendBinError(nil, 4, binMsgApply, 403, "not in the required group"),
			binResponse{id: 4, kind: binMsgApply, status: 403, msg: "not in the required group"}},
	}
	for _, tc := range cases {
		got, err := decodeBinResponse(tc.payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestBinaryLookupCanonical pins the deterministic encoding the fuzz
// round-trip identity check relies on: lists sorted by ID.
func TestBinaryLookupCanonical(t *testing.T) {
	out := map[merging.ListID][]posting.EncryptedShare{
		3: {share(3, 1, 3)}, 1: {share(1, 1, 1)}, 2: {share(2, 1, 2)},
	}
	a := appendLookupBody(nil, out)
	b := appendLookupBody(nil, out)
	if !reflect.DeepEqual(a, b) {
		t.Error("lookup body encoding is not deterministic")
	}
}

func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	valid := appendBinRequest(nil, &binRequest{
		id: 1, kind: binMsgApply, tok: "tok",
		inserts: []InsertOp{{List: 5, Share: share(10, 1, 100)}},
	})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"header-only", valid[:8]},
		{"truncated-token", valid[:12]},
		{"truncated-body", valid[:len(valid)-1]},
		{"trailing-bytes", append(append([]byte{}, valid...), 0)},
		{"unknown-kind", appendBinRequest(nil, &binRequest{id: 1, kind: 99})},
		{"retired-insert-kind", retiredInsertRequest(1)},
		{"retired-delete-kind", retiredDeleteRequest(1)},
	}
	for _, tc := range cases {
		if _, err := decodeBinRequest(tc.payload); err == nil {
			t.Errorf("%s: decodeBinRequest accepted a malformed payload", tc.name)
		}
	}

	// A count claiming more records than the payload holds must be
	// rejected before any allocation is attempted.
	huge := appendU64(nil, 1)
	huge = append(huge, binMsgApply)
	huge = appendU16(huge, 0)
	huge = append(huge, make([]byte, OpIDBytes)...)
	huge = appendU32(huge, 1<<30)
	if _, err := decodeBinRequest(huge); err == nil {
		t.Error("oversized element count accepted")
	}

	// Response side: duplicate list IDs, share counts that disagree with
	// the bytes that follow, and truncations are rejected.
	if _, err := decodeBinResponse(duplicateListLookupResponse()); err == nil {
		t.Error("duplicate list in lookup response accepted")
	}
	for _, claimed := range []uint32{1, 3, 1 << 30} {
		if _, err := decodeBinResponse(miscountedLookupResponse(claimed)); err == nil {
			t.Errorf("lookup response claiming %d shares over 2 records accepted", claimed)
		}
	}
	okResp := appendBinOK(nil, 1, binMsgXCoord, func(dst []byte) []byte { return appendU64(dst, 42) })
	if _, err := decodeBinResponse(okResp[:len(okResp)-1]); err == nil {
		t.Error("truncated response accepted")
	}
}

func TestBinaryErrorMessageCapped(t *testing.T) {
	payload := appendBinError(nil, 1, binMsgApply, 400, strings.Repeat("x", 10000))
	resp, err := decodeBinResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.msg) != 4096 {
		t.Errorf("error message length = %d, want capped at 4096", len(resp.msg))
	}
}

func TestBinaryPeekID(t *testing.T) {
	payload := appendBinRequest(nil, &binRequest{id: 12345, kind: binMsgApply, tok: "t"})
	id, kind, ok := binPeekID(payload)
	if !ok || id != 12345 || kind != binMsgApply {
		t.Errorf("binPeekID = (%d, %d, %v), want (12345, %d, true)", id, kind, ok, binMsgApply)
	}
	if _, _, ok := binPeekID(payload[:8]); ok {
		t.Error("binPeekID accepted a payload shorter than the header")
	}
}

// TestBinaryLookupDecodeAllocations is the decode budget: a lookup
// response costs one share slice per non-empty list plus the map, however
// many shares it carries.
func TestBinaryLookupDecodeAllocations(t *testing.T) {
	const nLists, perList = 3, 1200
	lists := make(map[merging.ListID][]posting.EncryptedShare, nLists)
	for l := 0; l < nLists; l++ {
		shares := make([]posting.EncryptedShare, perList)
		for i := range shares {
			shares[i] = share(posting.GlobalID(l*perList+i), 1, uint64(i))
		}
		lists[merging.ListID(l)] = shares
	}
	payload := appendBinOK(nil, 9, binMsgLookup, func(dst []byte) []byte { return appendLookupBody(dst, lists) })
	var resp binResponse
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if resp, err = decodeBinResponse(payload); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(resp.lists, lists) {
		t.Fatal("decoded lists differ from the encoded ones")
	}
	// The map is two allocations: its header and its one group of slots.
	if allocs > nLists+2 {
		t.Errorf("decoding %d lists of %d shares allocated %.0f times, want at most %d", nLists, perList, allocs, nLists+2)
	}
}
