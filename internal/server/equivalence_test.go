package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// TestShardedServerMatchesBaseline replays one randomized client
// workload against a server on the one-stripe single-lock store and a
// server on an eight-stripe store, and requires byte-identical
// observable behaviour: errors, retrieval contents and ordering, list
// lengths, and Stats: the stripe count is invisible at the policy
// layer.
func TestShardedServerMatchesBaseline(t *testing.T) {
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	groups.Add("alice", 2)
	groups.Add("bob", 2)
	base := New(Config{Name: "ix", X: 17, Auth: svc, Groups: groups, Store: store.NewSharded(1)})
	shrd := New(Config{Name: "ix", X: 17, Auth: svc, Groups: groups, Store: store.NewSharded(8)})
	alice, bob := svc.Issue("alice"), svc.Issue("bob")
	ctx := context.Background()

	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		tok := alice
		if r.Intn(3) == 0 {
			tok = bob
		}
		lid := merging.ListID(r.Intn(24))
		gid := posting.GlobalID(r.Intn(500))
		switch r.Intn(5) {
		case 0, 1:
			ops := []transport.InsertOp{{List: lid, Share: share(gid, uint32(1+r.Intn(2)), uint64(i))}}
			errA := transporttest.Insert(ctx, base, tok, ops)
			errB := transporttest.Insert(ctx, shrd, tok, ops)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: Insert errors diverged: %v vs %v", i, errA, errB)
			}
		case 2:
			ops := []transport.DeleteOp{{List: lid, ID: gid}}
			errA := transporttest.Delete(ctx, base, tok, ops)
			errB := transporttest.Delete(ctx, shrd, tok, ops)
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("op %d: Delete errors diverged: %v vs %v", i, errA, errB)
			}
		default:
			lids := []merging.ListID{lid, merging.ListID(r.Intn(24)), 999}
			gotA, errA := base.GetPostingLists(ctx, tok, lids)
			gotB, errB := shrd.GetPostingLists(ctx, tok, lids)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: lookup errors diverged: %v vs %v", i, errA, errB)
			}
			for _, l := range lids {
				a, b := gotA[l], gotB[l]
				if len(a) != len(b) {
					t.Fatalf("op %d list %d: %d vs %d shares", i, l, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("op %d list %d share %d: %+v vs %+v (retrieval ordering must match)",
							i, l, j, a[j], b[j])
					}
				}
			}
		}
	}

	if a, b := base.StatsSnapshot(), shrd.StatsSnapshot(); a != b {
		t.Errorf("Stats diverged: %+v vs %+v", a, b)
	}
	if a, b := base.Store().TotalElements(), shrd.Store().TotalElements(); a != b {
		t.Errorf("TotalElements diverged: %d vs %d", a, b)
	}
	la, lb := base.Store().ListLengths(), shrd.Store().ListLengths()
	if len(la) != len(lb) {
		t.Fatalf("ListLengths size diverged: %d vs %d", len(la), len(lb))
	}
	for lid, n := range la {
		if lb[lid] != n {
			t.Errorf("list %d length diverged: %d vs %d", lid, n, lb[lid])
		}
	}
}

// TestDeleteUnauthorizedCountsAppliedStats pins the partial-batch
// semantics across engines: a delete batch that hits a foreign-group
// element keeps the elements already removed and counts exactly those.
func TestDeleteUnauthorizedCountsAppliedStats(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc, err := auth.NewService(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			groups := auth.NewGroupTable()
			groups.Add("alice", 1)
			groups.Add("bob", 2)
			srv := New(Config{Name: "ix", X: 3, Auth: svc, Groups: groups, Store: store.NewSharded(shards)})
			alice, bob := svc.Issue("alice"), svc.Issue("bob")
			ctx := context.Background()
			if err := transporttest.Insert(ctx, srv, alice, []transport.InsertOp{{List: 1, Share: share(1, 1, 1)}, {List: 2, Share: share(2, 1, 2)}}); err != nil {
				t.Fatal(err)
			}
			if err := transporttest.Insert(ctx, srv, bob, []transport.InsertOp{{List: 3, Share: share(3, 2, 3)}}); err != nil {
				t.Fatal(err)
			}
			err = transporttest.Delete(ctx, srv, alice, []transport.DeleteOp{
				{List: 1, ID: 1}, // alice's own: removed
				{List: 3, ID: 3}, // bob's: unauthorized, aborts the batch
				{List: 2, ID: 2}, // never reached
			})
			if !errors.Is(err, ErrUnauthorized) {
				t.Fatalf("err = %v, want ErrUnauthorized", err)
			}
			if got := srv.Store().TotalElements(); got != 2 {
				t.Errorf("TotalElements = %d, want 2", got)
			}
			if st := srv.StatsSnapshot(); st.Deletes != 1 {
				t.Errorf("Stats.Deletes = %d, want 1 (the element removed before the abort)", st.Deletes)
			}
		})
	}
}

// countingStore counts the Upsert calls that reach the engine.
type countingStore struct {
	store.Store
	upserts int
}

func (c *countingStore) Upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	c.upserts++
	return c.Store.Upsert(lid, shares)
}

// TestShuffledInsertsEnterTheStoreOncePerList pins the grouping of an
// insert stage: the peer shuffles a whole payload, so 1,000 inserts
// over 10 lists arrive with no two neighbours in one list, and must
// still reach the engine as 10 Upsert calls, not 1,000, and leave every
// list laid out as applying the inserts one by one, in arrival order,
// would (the layout store.TestEnginesMatch compares across engines).
func TestShuffledInsertsEnterTheStoreOncePerList(t *testing.T) {
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	counted := &countingStore{Store: store.NewSharded(0)}
	srv := New(Config{Name: "ix", X: 3, Auth: svc, Groups: groups, Store: counted})

	r := rand.New(rand.NewSource(9))
	ops := make([]transport.InsertOp, 1000)
	for i := range ops {
		gid := posting.TagImpact(posting.GlobalID(i+1)<<8, uint8(r.Intn(posting.ImpactBuckets)))
		ops[i] = transport.InsertOp{List: merging.ListID(i % 10), Share: share(gid, 1, uint64(i))}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	oneByOne := store.NewSharded(1)
	for _, op := range ops {
		oneByOne.Upsert(op.List, []posting.EncryptedShare{op.Share})
	}

	if err := transporttest.Insert(context.Background(), srv, svc.Issue("alice"), ops); err != nil {
		t.Fatal(err)
	}
	if counted.upserts != 10 {
		t.Errorf("1,000 inserts over 10 lists entered the store %d times, want 10", counted.upserts)
	}
	if got := srv.StatsSnapshot().Inserts; got != 1000 {
		t.Errorf("Stats.Inserts = %d, want 1000", got)
	}
	for lid := merging.ListID(0); lid < 10; lid++ {
		got, want := counted.Scan(lid, nil), oneByOne.Scan(lid, nil)
		if len(got) != len(want) {
			t.Fatalf("list %d holds %d shares, one by one %d", lid, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("list %d position %d: %+v, one by one %+v", lid, i, got[i], want[i])
			}
		}
	}
}
