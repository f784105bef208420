package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

type fixture struct {
	srv   *Server
	svc   *auth.Service
	alice auth.Token // member of group 1
	bob   auth.Token // member of group 2
	eve   auth.Token // member of no group
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	groups.Add("bob", 2)
	srv := New(Config{Name: "ix1", X: 17, Auth: svc, Groups: groups})
	return &fixture{
		srv:   srv,
		svc:   svc,
		alice: svc.Issue("alice"),
		bob:   svc.Issue("bob"),
		eve:   svc.Issue("eve"),
	}
}

func share(gid posting.GlobalID, group uint32, y uint64) posting.EncryptedShare {
	return posting.EncryptedShare{GlobalID: gid, Group: group, Y: field.New(y)}
}

func TestInsertAndLookup(t *testing.T) {
	f := newFixture(t)
	err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{
		{List: 10, Share: share(1, 1, 111)},
		{List: 10, Share: share(2, 1, 222)},
		{List: 20, Share: share(3, 1, 333)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{10, 20, 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[10]) != 2 || len(got[20]) != 1 {
		t.Fatalf("lookup sizes: %d, %d", len(got[10]), len(got[20]))
	}
	if len(got[99]) != 0 {
		t.Error("unknown list must come back empty")
	}
	if f.srv.TotalElements() != 3 {
		t.Errorf("TotalElements = %d, want 3", f.srv.TotalElements())
	}
}

func TestAccessControlFiltersByGroup(t *testing.T) {
	f := newFixture(t)
	// Alice (group 1) and Bob (group 2) both have elements in list 5.
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 5, Share: share(1, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := transporttest.Insert(context.Background(), f.srv, f.bob, []transport.InsertOp{{List: 5, Share: share(2, 2, 2)}}); err != nil {
		t.Fatal(err)
	}
	got, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[5]) != 1 || got[5][0].Group != 1 {
		t.Fatalf("alice sees %v, want only group-1 share", got[5])
	}
	got, err = f.srv.GetPostingLists(context.Background(), f.bob, []merging.ListID{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[5]) != 1 || got[5][0].Group != 2 {
		t.Fatalf("bob sees %v, want only group-2 share", got[5])
	}
	// Eve belongs to nothing and sees nothing — but the request succeeds.
	got, err = f.srv.GetPostingLists(context.Background(), f.eve, []merging.ListID{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[5]) != 0 {
		t.Fatal("eve must see no shares")
	}
}

func TestInsertRequiresGroupMembership(t *testing.T) {
	f := newFixture(t)
	err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 1, Share: share(1, 2, 9)}})
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("insert into foreign group: %v", err)
	}
	// A batch with one bad op must be rejected atomically.
	err = transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{
		{List: 1, Share: share(1, 1, 9)},
		{List: 1, Share: share(2, 2, 9)},
	})
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("mixed batch: %v", err)
	}
	if f.srv.TotalElements() != 0 {
		t.Error("rejected batch must not leave partial state")
	}
}

func TestBadTokenRejected(t *testing.T) {
	f := newFixture(t)
	bad := auth.Token("not.a.token")
	if err := f.srv.Apply(context.Background(), bad, transport.OpID{}, nil, nil); err == nil {
		t.Error("apply with bad token succeeded")
	}
	if _, err := f.srv.GetPostingLists(context.Background(), bad, nil); err == nil {
		t.Error("lookup with bad token succeeded")
	}
	if _, err := f.srv.GetPostingBlocks(context.Background(), bad, 1, 0, 1); err == nil {
		t.Error("paged lookup with bad token succeeded")
	}
}

func TestDelete(t *testing.T) {
	f := newFixture(t)
	ops := []transport.InsertOp{
		{List: 7, Share: share(1, 1, 10)},
		{List: 7, Share: share(2, 1, 20)},
		{List: 7, Share: share(3, 1, 30)},
	}
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, ops); err != nil {
		t.Fatal(err)
	}
	if err := transporttest.Delete(context.Background(), f.srv, f.alice, []transport.DeleteOp{{List: 7, ID: 2}}); err != nil {
		t.Fatal(err)
	}
	if f.srv.ListLength(7) != 2 {
		t.Fatalf("list length = %d, want 2", f.srv.ListLength(7))
	}
	got, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{7})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range got[7] {
		if sh.GlobalID == 2 {
			t.Fatal("deleted element still served")
		}
	}
	// Deleting a missing element is not an error (an earlier delivery
	// may have removed it) and touches nothing.
	if err := transporttest.Delete(context.Background(), f.srv, f.alice, []transport.DeleteOp{{List: 7, ID: 99}}); err != nil {
		t.Errorf("missing delete: %v", err)
	}
	if f.srv.ListLength(7) != 2 || f.srv.StatsSnapshot().Deletes != 1 {
		t.Errorf("missing delete changed state: len=%d stats=%+v", f.srv.ListLength(7), f.srv.StatsSnapshot())
	}
	// Deleting another group's element is unauthorized.
	if err := transporttest.Insert(context.Background(), f.srv, f.bob, []transport.InsertOp{{List: 8, Share: share(5, 2, 50)}}); err != nil {
		t.Fatal(err)
	}
	if err := transporttest.Delete(context.Background(), f.srv, f.alice, []transport.DeleteOp{{List: 8, ID: 5}}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("cross-group delete: %v", err)
	}
}

func TestDeleteEmptiesList(t *testing.T) {
	f := newFixture(t)
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 3, Share: share(1, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := transporttest.Delete(context.Background(), f.srv, f.alice, []transport.DeleteOp{{List: 3, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if f.srv.ListLength(3) != 0 || f.srv.TotalElements() != 0 {
		t.Error("list not emptied")
	}
	if _, present := f.srv.ListLengths()[3]; present {
		t.Error("empty list must disappear from the adversary view")
	}
}

func TestIdempotentReinsertReplacesShare(t *testing.T) {
	f := newFixture(t)
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 4, Share: share(9, 1, 100)}}); err != nil {
		t.Fatal(err)
	}
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 4, Share: share(9, 1, 200)}}); err != nil {
		t.Fatal(err)
	}
	if f.srv.ListLength(4) != 1 {
		t.Fatalf("duplicate global ID produced %d entries", f.srv.ListLength(4))
	}
	got, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{4})
	if err != nil {
		t.Fatal(err)
	}
	if got[4][0].Y != field.New(200) {
		t.Error("re-insert must replace the stored share")
	}
}

func TestMembershipRevocationImmediate(t *testing.T) {
	f := newFixture(t)
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 1, Share: share(1, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	f.srv.Groups().Remove("alice", 1)
	got, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 0 {
		t.Error("revoked member still sees group shares")
	}
	// Re-adding restores access instantly.
	f.srv.Groups().Add("alice", 1)
	got, err = f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 {
		t.Error("restored member sees nothing")
	}
}

func TestAdversaryViewOnlyLengths(t *testing.T) {
	// A compromised server sees list lengths and encrypted shares, never
	// the plaintext. We verify that shares stored for equal plaintext
	// elements are not equal (randomized sharing happens client-side; here
	// we just verify the store's raw view exposes exactly what was stored).
	f := newFixture(t)
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{
		{List: 2, Share: share(1, 1, 123)},
		{List: 2, Share: share(2, 1, 456)},
	}); err != nil {
		t.Fatal(err)
	}
	raw := f.srv.Store().List(2)
	if len(raw) != 2 {
		t.Fatalf("raw list = %d entries", len(raw))
	}
	lengths := f.srv.ListLengths()
	if lengths[2] != 2 {
		t.Errorf("ListLengths[2] = %d", lengths[2])
	}
	if f.srv.StorageBytes() != 2*posting.WireBytes {
		t.Errorf("StorageBytes = %d", f.srv.StorageBytes())
	}
}

func TestStats(t *testing.T) {
	f := newFixture(t)
	if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: 1, Share: share(1, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{1}); err != nil {
		t.Fatal(err)
	}
	if err := transporttest.Delete(context.Background(), f.srv, f.alice, []transport.DeleteOp{{List: 1, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	st := f.srv.StatsSnapshot()
	if st.Inserts != 1 || st.Lookups != 1 || st.Deletes != 1 || st.ElementsServed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestZeroXPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero x-coordinate must panic")
		}
	}()
	svc, _ := auth.NewService(time.Minute)
	New(Config{Name: "bad", X: 0, Auth: svc, Groups: auth.NewGroupTable()})
}

func TestConcurrentMixedOps(t *testing.T) {
	f := newFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				gid := posting.GlobalID(g*1000 + i)
				lid := merging.ListID(r.Intn(4))
				if err := transporttest.Insert(context.Background(), f.srv, f.alice, []transport.InsertOp{{List: lid, Share: share(gid, 1, uint64(i))}}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := f.srv.GetPostingLists(context.Background(), f.alice, []merging.ListID{lid}); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				if i%2 == 0 {
					if err := transporttest.Delete(context.Background(), f.srv, f.alice, []transport.DeleteOp{{List: lid, ID: gid}}); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// 8 goroutines * 100 inserts, half deleted.
	if got := f.srv.TotalElements(); got != 400 {
		t.Errorf("TotalElements = %d, want 400", got)
	}
}
