package transport_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// storeEngines names the storage engines the duplicate-delivery
// guarantees must hold on.
var storeEngines = []struct {
	name   string
	shards int
}{
	{"memory", 1},
	{"sharded", 0},
}

func newStoreServer(t *testing.T, shards int) (*server.Server, auth.Token) {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	srv := server.New(server.Config{
		Name: "ix", X: field.New(42), Auth: svc, Groups: groups, Store: store.NewSharded(shards),
	})
	return srv, svc.Issue("alice")
}

// snapshot captures everything a duplicate delivery must not change:
// full store contents and the activity stats.
func snapshot(srv *server.Server) (map[merging.ListID][]posting.EncryptedShare, server.Stats) {
	lists := make(map[merging.ListID][]posting.EncryptedShare)
	for lid := range srv.ListLengths() {
		lists[lid] = srv.Store().List(lid)
	}
	return lists, srv.StatsSnapshot()
}

// TestWireApplyDuplicateDelivery replays the same mutation request
// twice over each real wire codec — the shape of a client retrying
// after a lost response — and requires identical store state and stats
// afterwards, on every storage engine.
func TestWireApplyDuplicateDelivery(t *testing.T) {
	for _, codec := range codecs {
		for _, eng := range storeEngines {
			t.Run(codec.name+"/"+eng.name, func(t *testing.T) {
				srv, tok := newStoreServer(t, eng.shards)
				c := codec.dial(t, srv)
				ctx := context.Background()

				// Insert stage, delivered twice.
				insOp := transport.OpID{ID: 77, Stage: transport.StageInsert}
				inserts := []transport.InsertOp{
					{List: 1, Share: sampleShare(10, 111)},
					{List: 1, Share: sampleShare(11, 222)},
					{List: 2, Share: sampleShare(12, 333)},
				}
				if err := c.Apply(ctx, tok, insOp, inserts, nil); err != nil {
					t.Fatal(err)
				}
				wantLists, wantStats := snapshot(srv)
				if wantStats.Inserts != 3 {
					t.Fatalf("first delivery counted %d inserts, want 3", wantStats.Inserts)
				}
				if err := c.Apply(ctx, tok, insOp, inserts, nil); err != nil {
					t.Fatalf("redelivered insert stage: %v", err)
				}
				gotLists, gotStats := snapshot(srv)
				if !reflect.DeepEqual(gotLists, wantLists) {
					t.Errorf("store changed under duplicate insert delivery:\n got %v\nwant %v", gotLists, wantLists)
				}
				if gotStats != wantStats {
					t.Errorf("stats changed under duplicate insert delivery: %+v -> %+v", wantStats, gotStats)
				}

				// Delete stage, delivered twice: the second delivery finds
				// the elements gone and must still acknowledge cleanly.
				delOp := transport.OpID{ID: 77, Stage: transport.StageDelete}
				deletes := []transport.DeleteOp{{List: 1, ID: 10}, {List: 2, ID: 12}}
				if err := c.Apply(ctx, tok, delOp, nil, deletes); err != nil {
					t.Fatal(err)
				}
				wantLists, wantStats = snapshot(srv)
				if wantStats.Deletes != 2 {
					t.Fatalf("first delete delivery counted %d deletes, want 2", wantStats.Deletes)
				}
				if err := c.Apply(ctx, tok, delOp, nil, deletes); err != nil {
					t.Fatalf("redelivered delete stage: %v", err)
				}
				gotLists, gotStats = snapshot(srv)
				if !reflect.DeepEqual(gotLists, wantLists) {
					t.Errorf("store changed under duplicate delete delivery")
				}
				if gotStats != wantStats {
					t.Errorf("stats changed under duplicate delete delivery: %+v -> %+v", wantStats, gotStats)
				}
				if srv.TotalElements() != 1 {
					t.Errorf("TotalElements = %d, want 1", srv.TotalElements())
				}
			})
		}
	}
}

// TestApplySemantics pins the server-side contract of Apply directly:
// conditional deletes, zero-op-ID passthrough, and checksum-guarded
// deduplication.
func TestApplySemantics(t *testing.T) {
	for _, eng := range storeEngines {
		t.Run(eng.name, func(t *testing.T) {
			srv, tok := newStoreServer(t, eng.shards)
			ctx := context.Background()

			// Conditional deletes: a missing element is not an error,
			// with or without an op ID.
			op := transport.OpID{ID: 1, Stage: transport.StageDelete}
			if err := srv.Apply(ctx, tok, op, nil, []transport.DeleteOp{{List: 9, ID: 404}}); err != nil {
				t.Fatalf("conditional delete of a missing element: %v", err)
			}
			if err := transporttest.Delete(ctx, srv, tok, []transport.DeleteOp{{List: 9, ID: 404}}); err != nil {
				t.Fatalf("unconditional delete of a missing element: %v", err)
			}

			// Zero op ID: no deduplication, every delivery applies.
			ins := []transport.InsertOp{{List: 1, Share: sampleShare(1, 10)}}
			for i := 0; i < 2; i++ {
				if err := srv.Apply(ctx, tok, transport.OpID{}, ins, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Upsert-by-GID means the element is still stored once, but
			// both deliveries went through to the store (stats count new
			// appends only; the second is a replacement).
			if srv.TotalElements() != 1 {
				t.Fatalf("TotalElements = %d, want 1", srv.TotalElements())
			}

			// A permuted redelivery is the same payload: peers draw a
			// fresh correlation-hiding shuffle per dispatch attempt, so
			// the dedup checksum must be order-independent or the
			// motivating retry-after-lost-response case never dedups.
			opPerm := transport.OpID{ID: 9, Stage: transport.StageInsert}
			permA := []transport.InsertOp{
				{List: 6, Share: sampleShare(60, 6)},
				{List: 6, Share: sampleShare(61, 7)},
				{List: 7, Share: sampleShare(62, 8)},
			}
			if err := srv.Apply(ctx, tok, opPerm, permA, nil); err != nil {
				t.Fatal(err)
			}
			statsBefore := srv.StatsSnapshot()
			permB := []transport.InsertOp{permA[2], permA[0], permA[1]}
			if err := srv.Apply(ctx, tok, opPerm, permB, nil); err != nil {
				t.Fatal(err)
			}
			if got := srv.StatsSnapshot(); got != statsBefore {
				t.Errorf("shuffled redelivery was not deduplicated: %+v -> %+v", statsBefore, got)
			}

			// Same op ID, different payload: the checksum forces a
			// re-apply instead of a false dedup hit.
			op2 := transport.OpID{ID: 2, Stage: transport.StageInsert}
			if err := srv.Apply(ctx, tok, op2, []transport.InsertOp{{List: 3, Share: sampleShare(30, 1)}}, nil); err != nil {
				t.Fatal(err)
			}
			if err := srv.Apply(ctx, tok, op2, []transport.InsertOp{{List: 3, Share: sampleShare(31, 2)}}, nil); err != nil {
				t.Fatal(err)
			}
			if got := srv.ListLength(3); got != 2 {
				t.Errorf("payload-changed redelivery applied %d elements, want 2", got)
			}

			// A failed stage is not recorded: after an authorization
			// failure the same op ID must re-apply, not dedup.
			groups := srv.Groups()
			groups.Add("bob", 2)
			op3 := transport.OpID{ID: 3, Stage: transport.StageInsert}
			foreign := []transport.InsertOp{{List: 4, Share: posting.EncryptedShare{GlobalID: 40, Group: 99, Y: 1}}}
			if err := srv.Apply(ctx, tok, op3, foreign, nil); err == nil {
				t.Fatal("cross-group Apply must fail")
			}
			ok := []transport.InsertOp{{List: 4, Share: sampleShare(40, 4)}}
			if err := srv.Apply(ctx, tok, op3, ok, nil); err != nil {
				t.Fatalf("op ID reuse after failure: %v", err)
			}
			if got := srv.ListLength(4); got != 1 {
				t.Errorf("list 4 holds %d elements, want 1", got)
			}
		})
	}
}
