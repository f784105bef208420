package dht_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/dht"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// churnSlot builds one slot with nNodes nodes (n0..n{nNodes-1}) and an
// authorized token for group 1.
func churnSlot(t *testing.T, nNodes int) (*dht.Slot, *auth.Service, auth.Token) {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	slot, err := dht.NewSlot(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nNodes; n++ {
		srv := server.New(server.Config{
			Name: fmt.Sprintf("node%d", n), X: 1, Auth: svc, Groups: groups,
			Store: store.NewSharded(0),
		})
		if err := slot.AddNode(fmt.Sprintf("n%d", n), srv); err != nil {
			t.Fatal(err)
		}
	}
	return slot, svc, svc.Issue("alice")
}

func churnNodeServer(t *testing.T, svc *auth.Service, name string) *server.Server {
	t.Helper()
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	return server.New(server.Config{Name: name, X: 1, Auth: svc, Groups: groups, Store: store.NewSharded(0)})
}

// checkSlotSettled drives the slot to Pending()==0 and verifies every
// list resides exactly on its ring owner with no element duplicated or
// lost relative to want (gid -> share value present).
func checkSlotSettled(t *testing.T, slot *dht.Slot, want map[posting.GlobalID]bool) {
	t.Helper()
	for attempt := 0; slot.Pending() > 0; attempt++ {
		if attempt > 50 {
			t.Fatalf("slot never settled: %d pending after %d rebalances", slot.Pending(), attempt)
		}
		_ = slot.Rebalance()
	}
	seen := make(map[posting.GlobalID]string)
	for _, name := range slot.NodeNames() {
		srv, ok := slot.Node(name)
		if !ok {
			t.Fatalf("node %s vanished", name)
		}
		if err := store.CheckInvariants(srv.Store()); err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		for lid := range srv.ListLengths() {
			ringOwner, err := slot.RingOwnerOfList(lid)
			if err != nil {
				t.Fatal(err)
			}
			if ringOwner != name {
				t.Errorf("list %d on node %s, ring owner %s (settled slot must match the ring)", lid, name, ringOwner)
			}
			for _, sh := range srv.Store().List(lid) {
				if prev, dup := seen[sh.GlobalID]; dup {
					t.Fatalf("element %d stored on both %s and %s", sh.GlobalID, prev, name)
				}
				seen[sh.GlobalID] = name
				if !want[sh.GlobalID] {
					t.Fatalf("orphaned element %d on %s", sh.GlobalID, name)
				}
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("slot holds %d elements, want %d", len(seen), len(want))
	}
}

// TestSlotChurnRace hammers AddNode/RemoveNode against in-flight
// Insert/Apply/Delete/GetPostingLists on a live slot. Runs under
// `make race`; correctness of the final state is checked exactly.
func TestSlotChurnRace(t *testing.T) {
	rounds, writers := 12, 3
	if testing.Short() {
		rounds = 5
	}
	slot, svc, tok := churnSlot(t, 2)
	ctx := context.Background()

	var stop atomic.Bool
	var nextGid atomic.Uint64
	var mu sync.Mutex
	live := make(map[posting.GlobalID]merging.ListID) // gids the writers committed

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			var opID uint64
			for !stop.Load() {
				lid := merging.ListID(rng.Intn(24))
				gid := posting.GlobalID(nextGid.Add(1))
				opID++
				ins := []transport.InsertOp{{List: lid, Share: posting.EncryptedShare{GlobalID: gid, Group: 1, Y: 42}}}
				op := transport.OpID{ID: uint64(w)<<32 | opID, Stage: transport.StageInsert}
				if err := slot.Apply(ctx, tok, op, ins, nil); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				mu.Lock()
				live[gid] = lid
				mu.Unlock()
				if rng.Intn(4) == 0 {
					// Delete a random committed element.
					mu.Lock()
					var victim posting.GlobalID
					var vlid merging.ListID
					for g, l := range live {
						victim, vlid = g, l
						break
					}
					if victim != 0 {
						delete(live, victim)
					}
					mu.Unlock()
					if victim != 0 {
						dels := []transport.DeleteOp{{List: vlid, ID: victim}}
						if err := transporttest.Delete(ctx, slot, tok, dels); err != nil {
							t.Errorf("delete: %v", err)
							return
						}
					}
				}
				if rng.Intn(3) == 0 {
					if _, err := slot.GetPostingLists(ctx, tok, []merging.ListID{lid}); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Membership churn in the foreground: join extra nodes, remove
	// them again, interleaved with the writers above.
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("x%d", r)
		if err := slot.AddNode(name, churnNodeServer(t, svc, name)); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		if r%2 == 1 {
			if err := slot.RemoveNode(fmt.Sprintf("x%d", r-1)); err != nil {
				t.Fatalf("leave x%d: %v", r-1, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	want := make(map[posting.GlobalID]bool, len(live))
	for gid := range live {
		want[gid] = true
	}
	checkSlotSettled(t, slot, want)
}

// flakySink fails migration traffic on demand: Ingest deliveries after
// the fuse, and optionally Abort cleanups too.
type flakySink struct {
	slot       *dht.Slot
	ingestFuse int32 // fail Ingest once this many deliveries happened
	failAbort  bool
}

var errSinkDead = errors.New("sink: migration target unreachable")

func (f *flakySink) Ingest(_ context.Context, target string, ep dht.Epoch, seq uint64, lid merging.ListID, shares []posting.EncryptedShare) error {
	if atomic.AddInt32(&f.ingestFuse, -1) < 0 {
		return errSinkDead
	}
	return f.slot.DeliverIngest(target, ep, seq, lid, shares)
}

func (f *flakySink) Remove(_ context.Context, target string, ep dht.Epoch, seq uint64, lid merging.ListID, gids []posting.GlobalID) error {
	return f.slot.DeliverRemove(target, ep, seq, lid, gids)
}

func (f *flakySink) Abort(_ context.Context, target string, ep dht.Epoch, lid merging.ListID) error {
	if f.failAbort {
		return errSinkDead
	}
	return f.slot.DeliverAbort(target, ep, lid)
}

// preload stuffs lists 0..lists-1 with count shares each through the
// trusted ingest primitive and returns the full gid set.
func preload(slot *dht.Slot, node string, lists, count int) map[posting.GlobalID]bool {
	srv, _ := slot.Node(node)
	want := make(map[posting.GlobalID]bool)
	gid := posting.GlobalID(0)
	for l := 0; l < lists; l++ {
		shares := make([]posting.EncryptedShare, count)
		for i := range shares {
			gid++
			shares[i] = posting.EncryptedShare{GlobalID: gid, Group: 1, Y: 7}
			want[gid] = true
		}
		srv.Store().Upsert(merging.ListID(l), shares)
	}
	return want
}

// TestCrashMidCopy kills the migration target partway through a copy:
// the move must abort with the source still authoritative, the target
// holding no half-ingested list, and the slot still serving every
// element. A later Rebalance through a healed sink converges.
func TestCrashMidCopy(t *testing.T) {
	slot, svc, tok := churnSlot(t, 1)
	want := preload(slot, "n0", 12, 10)
	slot.SetMigrationPolicy(dht.MigrationPolicy{ChunkSize: 4, Attempts: 2, Timeout: time.Second})

	sink := &flakySink{slot: slot, ingestFuse: 4}
	slot.SetTransferSink(sink)
	err := slot.AddNode("n1", churnNodeServer(t, svc, "n1"))
	if err == nil {
		t.Fatal("join with a dying target must report aborted moves")
	}
	if slot.Pending() == 0 {
		t.Fatal("aborted moves must leave pending work")
	}

	// Target holds no half-ingested list: every aborted move cleaned up.
	n1, _ := slot.Node("n1")
	if got := n1.TotalElements(); got != 0 {
		// Fully cut-over lists are allowed on n1; partially copied ones
		// are not. Verify every list on n1 is complete and ring-owned.
		for lid := range n1.ListLengths() {
			owner, _ := slot.RingOwnerOfList(lid)
			if owner != "n1" {
				t.Fatalf("n1 holds list %d it does not own", lid)
			}
			if len(n1.Store().List(lid)) != 10 {
				t.Fatalf("n1 holds %d of 10 shares of list %d — half-ingested list survived the abort", len(n1.Store().List(lid)), lid)
			}
		}
	}

	// The slot still serves everything, routed to wherever authority is.
	lists := make([]merging.ListID, 12)
	for i := range lists {
		lists[i] = merging.ListID(i)
	}
	got, err := slot.GetPostingLists(context.Background(), tok, lists)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, shares := range got {
		served += len(shares)
	}
	if served != len(want) {
		t.Fatalf("slot serves %d elements mid-degradation, want %d", served, len(want))
	}

	// Heal the wire; Rebalance converges and n1 gets its lists.
	slot.SetTransferSink(nil)
	checkSlotSettled(t, slot, want)
	if n1.TotalElements() == 0 {
		t.Fatal("after rebalance the new node should own some lists")
	}
}

// TestAbortCleanupPending covers the double-failure path: the target
// dies mid-copy and the cleanup cannot be delivered either. The
// partial copy is remembered and cleaned by the next Rebalance; until
// then reads never see the half-ingested data.
func TestAbortCleanupPending(t *testing.T) {
	slot, svc, tok := churnSlot(t, 1)
	want := preload(slot, "n0", 8, 6)
	slot.SetMigrationPolicy(dht.MigrationPolicy{ChunkSize: 2, Attempts: 1, Timeout: time.Second})

	sink := &flakySink{slot: slot, ingestFuse: 1, failAbort: true}
	slot.SetTransferSink(sink)
	if err := slot.AddNode("n1", churnNodeServer(t, svc, "n1")); err == nil {
		t.Fatal("join must report the stranded cleanup")
	}
	if slot.Pending() == 0 {
		t.Fatal("stranded cleanup must count as pending")
	}

	// Reads must not see the stranded partial copy twice.
	lists := make([]merging.ListID, 8)
	for i := range lists {
		lists[i] = merging.ListID(i)
	}
	got, err := slot.GetPostingLists(context.Background(), tok, lists)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, shares := range got {
		served += len(shares)
	}
	if served != len(want) {
		t.Fatalf("slot serves %d elements with a stranded copy, want %d", served, len(want))
	}

	slot.SetTransferSink(nil)
	checkSlotSettled(t, slot, want)
}

// TestLoseCutoverHook proves the two-phase handoff is load-bearing:
// with the lost-cutover bug shape enabled, a join makes data
// unreachable (the exact failure the sim's churn checker must catch).
func TestLoseCutoverHook(t *testing.T) {
	slot, svc, tok := churnSlot(t, 1)
	want := preload(slot, "n0", 12, 5)
	slot.SetSimHooks(&dht.SimHooks{LoseCutover: true})
	if err := slot.AddNode("n1", churnNodeServer(t, svc, "n1")); err != nil {
		t.Fatalf("the buggy cutover reports success: %v", err)
	}
	lists := make([]merging.ListID, 12)
	for i := range lists {
		lists[i] = merging.ListID(i)
	}
	got, err := slot.GetPostingLists(context.Background(), tok, lists)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, shares := range got {
		served += len(shares)
	}
	if served >= len(want) {
		t.Fatalf("lost cutover still serves %d of %d elements — the bug shape is vacuous", served, len(want))
	}
}
