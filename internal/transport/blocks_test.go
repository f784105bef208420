package transport_test

import (
	"context"
	"testing"

	"zerber/internal/field"
	"zerber/internal/posting"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// taggedShare builds a group-1 share whose GlobalID carries impact
// bucket b, so the server keeps it score-ordered.
func taggedShare(seq uint64, b uint8, y uint64) posting.EncryptedShare {
	return posting.EncryptedShare{GlobalID: posting.TagImpact(posting.GlobalID(seq), b), Group: 1, Y: field.New(y)}
}

// TestWireBlockPages runs the paged lookup over the wire: pages come
// back highest-impact-first, window by window, with the fixed-width
// header (total, next bucket) intact — the conformance contract the
// top-k client depends on.
func TestWireBlockPages(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			srv, tok := newServer(t)
			c := codec.dial(t, srv)
			ctx := context.Background()

			// Buckets 7, 7, 3, 1 — inserted in scrambled order.
			ins := []transport.InsertOp{
				{List: 5, Share: taggedShare(1, 1, 10)},
				{List: 5, Share: taggedShare(2, 7, 20)},
				{List: 5, Share: taggedShare(3, 3, 30)},
				{List: 5, Share: taggedShare(4, 7, 40)},
			}
			if err := transporttest.Insert(ctx, c, tok, ins); err != nil {
				t.Fatal(err)
			}

			page, err := c.GetPostingBlocks(ctx, tok, 5, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != 4 || len(page.Shares) != 2 || page.Next != 3 {
				t.Fatalf("first page over %s: total=%d shares=%d next=%d",
					codec.name, page.Total, len(page.Shares), page.Next)
			}
			for _, sh := range page.Shares {
				if posting.ImpactOf(sh.GlobalID) != 7 {
					t.Fatalf("first page returned bucket %d, want 7", posting.ImpactOf(sh.GlobalID))
				}
			}
			page, err = c.GetPostingBlocks(ctx, tok, 5, 2, 10)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != 4 || len(page.Shares) != 2 || page.Next != 0 {
				t.Fatalf("tail page over %s: total=%d shares=%d next=%d",
					codec.name, page.Total, len(page.Shares), page.Next)
			}
			if posting.ImpactOf(page.Shares[0].GlobalID) != 3 || posting.ImpactOf(page.Shares[1].GlobalID) != 1 {
				t.Fatalf("tail page out of order: %v", page.Shares)
			}
			// Y values survive the round trip exactly.
			if page.Shares[0].Y != field.New(30) || page.Shares[1].Y != field.New(10) {
				t.Fatalf("tail page Y values: %v", page.Shares)
			}

			// Unknown list: empty page, zero total.
			page, err = c.GetPostingBlocks(ctx, tok, 99, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != 0 || len(page.Shares) != 0 || page.Next != 0 {
				t.Fatalf("unknown list page: %+v", page)
			}

			// Bad token: same 401 class as the full lookup.
			if _, err := c.GetPostingBlocks(ctx, "garbage", 5, 0, 2); err == nil {
				t.Fatalf("bad token accepted over %s", codec.name)
			}
		})
	}
}

func TestLocalBlockByteAccounting(t *testing.T) {
	srv, tok := newServer(t)
	l := transport.NewLocal(srv)
	if err := transporttest.Insert(context.Background(), l, tok, []transport.InsertOp{
		{List: 1, Share: taggedShare(1, 2, 1)},
		{List: 1, Share: taggedShare(2, 5, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	l.ResetCounters()
	if _, err := l.GetPostingBlocks(context.Background(), tok, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	wantSent := int64(len(tok)) + transport.BlockReqBytes
	if got := l.BytesSent(); got != wantSent {
		t.Errorf("BytesSent = %d, want %d", got, wantSent)
	}
	wantRecv := int64(transport.BlockHeaderBytes + transport.ShareBytes)
	if got := l.BytesReceived(); got != wantRecv {
		t.Errorf("BytesReceived = %d, want %d", got, wantRecv)
	}
}
