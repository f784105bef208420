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
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/proactive"
	"zerber/internal/server"
	"zerber/internal/shamir"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// slowNode is a node store whose ranged reads take a while, like a disk
// engine's cold read, so a paged read overlaps the migration engine's
// cutovers instead of slipping between them.
type slowNode struct{ store.Store }

func (n slowNode) ScanRange(lid merging.ListID, from, cnt int, keep func(posting.EncryptedShare) bool) ([]posting.EncryptedShare, int, uint8) {
	time.Sleep(50 * time.Microsecond)
	return n.Store.ScanRange(lid, from, cnt, keep)
}

func newNode() store.Store { return slowNode{store.NewSharded(0)} }

// serve puts an index server over slot and returns it with a token
// authorized for group 1.
func serve(t testing.TB, slot *dht.Slot) (*server.Server, auth.Token) {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	return server.New(server.Config{Name: "slot", X: 1, Auth: svc, Groups: groups, Store: slot}), svc.Issue("alice")
}

// churnSlot builds one slot with nNodes slow nodes (n0..n{nNodes-1})
// and the index server over it.
func churnSlot(t *testing.T, nNodes int) (*dht.Slot, *server.Server, auth.Token) {
	t.Helper()
	slot := dht.NewSlot(32, "n0", newNode())
	for n := 1; n < nNodes; n++ {
		if err := slot.AddNode(fmt.Sprintf("n%d", n), newNode()); err != nil {
			t.Fatal(err)
		}
	}
	srv, tok := serve(t, slot)
	return slot, srv, tok
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
	if err := store.CheckInvariants(slot); err != nil {
		t.Fatalf("slot: %v", err)
	}
	seen := make(map[posting.GlobalID]string)
	for _, name := range slot.NodeNames() {
		node, ok := slot.Node(name)
		if !ok {
			t.Fatalf("node %s vanished", name)
		}
		if err := store.CheckInvariants(node); err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		for lid := range node.ListLengths() {
			ringOwner, err := slot.RingOwnerOfList(lid)
			if err != nil {
				t.Fatal(err)
			}
			if ringOwner != name {
				t.Errorf("list %d on node %s, ring owner %s (settled slot must match the ring)", lid, name, ringOwner)
			}
			for _, sh := range node.Scan(lid, nil) {
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
// Apply/Delete/GetPostingLists on a server over a live slot, while
// readers page through preloaded, never-mutated lists with
// GetPostingBlocks: every page must report the list's full length, and
// the pages must add up to the list, whichever node served them — a
// page read from a source that a cutover has just emptied reports 0.
// Runs under `make race`; correctness of the final state is checked
// exactly.
func TestSlotChurnRace(t *testing.T) {
	rounds, writers, readers := 12, 3, 4
	if testing.Short() {
		rounds = 5
	}
	const pagedLists, pagedLen, page = 8, 48, 8
	slot, srv, tok := churnSlot(t, 2)
	ctx := context.Background()

	var mu sync.Mutex
	live := make(map[posting.GlobalID]merging.ListID) // gids the writers committed
	paged := make([]merging.ListID, pagedLists)
	for l := range paged {
		paged[l] = merging.ListID(1000 + l)
		shares := make([]posting.EncryptedShare, pagedLen)
		for i := range shares {
			gid := posting.GlobalID(1<<32 + l*pagedLen + i)
			shares[i] = posting.EncryptedShare{GlobalID: gid, Group: 1, Y: 9}
			live[gid] = paged[l]
		}
		slot.Upsert(paged[l], shares)
	}

	var stop atomic.Bool
	var nextGid atomic.Uint64
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
				if err := srv.Apply(ctx, tok, op, ins, nil); err != nil {
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
						if l < 1000 {
							victim, vlid = g, l
							break
						}
					}
					if victim != 0 {
						delete(live, victim)
					}
					mu.Unlock()
					if victim != 0 {
						dels := []transport.DeleteOp{{List: vlid, ID: victim}}
						if err := transporttest.Delete(ctx, srv, tok, dels); err != nil {
							t.Errorf("delete: %v", err)
							return
						}
					}
				}
				if rng.Intn(3) == 0 {
					if _, err := srv.GetPostingLists(ctx, tok, []merging.ListID{lid}); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				lid := paged[i%pagedLists]
				got := 0
				for from := 0; from < pagedLen; from += page {
					p, err := srv.GetPostingBlocks(ctx, tok, lid, from, page)
					if err != nil {
						t.Errorf("page read: %v", err)
						return
					}
					if p.Total != pagedLen {
						t.Errorf("list %d page at %d: Total %d, preloaded %d", lid, from, p.Total, pagedLen)
						return
					}
					got += len(p.Shares)
				}
				if got != pagedLen {
					t.Errorf("list %d: pages hold %d shares, preloaded %d", lid, got, pagedLen)
					return
				}
			}
		}(r)
	}

	// Membership churn in the foreground: join extra nodes, remove
	// them again, interleaved with the writers and readers above.
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("x%d", r)
		if err := slot.AddNode(name, newNode()); err != nil {
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
// slot's store calls and returns the full gid set.
func preload(slot *dht.Slot, lists, count int) map[posting.GlobalID]bool {
	want := make(map[posting.GlobalID]bool)
	gid := posting.GlobalID(0)
	for l := 0; l < lists; l++ {
		shares := make([]posting.EncryptedShare, count)
		for i := range shares {
			gid++
			shares[i] = posting.EncryptedShare{GlobalID: gid, Group: 1, Y: 7}
			want[gid] = true
		}
		slot.Upsert(merging.ListID(l), shares)
	}
	return want
}

// TestCrashMidCopy kills the migration target partway through a copy:
// the move must abort with the source still authoritative, the target
// holding no half-ingested list, and the slot still serving every
// element. A later Rebalance through a healed sink converges.
func TestCrashMidCopy(t *testing.T) {
	slot, srv, tok := churnSlot(t, 1)
	want := preload(slot, 12, 10)
	slot.SetMigrationPolicy(dht.MigrationPolicy{ChunkSize: 4, Attempts: 2, Timeout: time.Second})

	sink := &flakySink{slot: slot, ingestFuse: 4}
	slot.SetTransferSink(sink)
	err := slot.AddNode("n1", newNode())
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
			if len(n1.Scan(lid, nil)) != 10 {
				t.Fatalf("n1 holds %d of 10 shares of list %d — half-ingested list survived the abort", len(n1.Scan(lid, nil)), lid)
			}
		}
	}

	// The slot still serves everything, routed to wherever authority is.
	lists := make([]merging.ListID, 12)
	for i := range lists {
		lists[i] = merging.ListID(i)
	}
	got, err := srv.GetPostingLists(context.Background(), tok, lists)
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
	slot, srv, tok := churnSlot(t, 1)
	want := preload(slot, 8, 6)
	slot.SetMigrationPolicy(dht.MigrationPolicy{ChunkSize: 2, Attempts: 1, Timeout: time.Second})

	sink := &flakySink{slot: slot, ingestFuse: 1, failAbort: true}
	slot.SetTransferSink(sink)
	if err := slot.AddNode("n1", newNode()); err == nil {
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
	got, err := srv.GetPostingLists(context.Background(), tok, lists)
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
	slot, srv, tok := churnSlot(t, 1)
	want := preload(slot, 12, 5)
	slot.SetSimHooks(&dht.SimHooks{LoseCutover: true})
	if err := slot.AddNode("n1", newNode()); err != nil {
		t.Fatalf("the buggy cutover reports success: %v", err)
	}
	lists := make([]merging.ListID, 12)
	for i := range lists {
		lists[i] = merging.ListID(i)
	}
	got, err := srv.GetPostingLists(context.Background(), tok, lists)
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

// parkingSink delivers in-process but parks the second Ingest of the
// first move until release is closed: the target then holds one chunk
// of the list, copied before whatever runs while the move is parked.
type parkingSink struct {
	slot            *dht.Slot
	ingests         atomic.Int32
	parked, release chan struct{}
}

func (p *parkingSink) Ingest(_ context.Context, target string, ep dht.Epoch, seq uint64, lid merging.ListID, shares []posting.EncryptedShare) error {
	if p.ingests.Add(1) == 2 {
		close(p.parked)
		<-p.release
	}
	return p.slot.DeliverIngest(target, ep, seq, lid, shares)
}

func (p *parkingSink) Remove(_ context.Context, target string, ep dht.Epoch, seq uint64, lid merging.ListID, gids []posting.GlobalID) error {
	return p.slot.DeliverRemove(target, ep, seq, lid, gids)
}

func (p *parkingSink) Abort(_ context.Context, target string, ep dht.Epoch, lid merging.ListID) error {
	return p.slot.DeliverAbort(target, ep, lid)
}

// TestReshareDuringMove runs a proactive resharing round over three
// slot servers while slot 0 has a list half copied to a joining node.
// The round must not wait for the move, and after cutover every element
// must reconstruct to its original secret from every 2-subset of the
// slots: the refreshed share of a moving list reaches the target
// because ApplyDeltas marks its IDs dirty, so the drain resends them.
func TestReshareDuringMove(t *testing.T) {
	const n, k, lists, perList = 3, 2, 16, 12
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	xs := make([]field.Element, n)
	slots := make([]*dht.Slot, n)
	servers := make([]*server.Server, n)
	for i := range slots {
		xs[i] = field.Element(i + 1)
		slots[i] = dht.NewSlot(32, "n0", store.NewSharded(0))
		servers[i] = server.New(server.Config{Name: fmt.Sprintf("slot%d", i), X: xs[i], Auth: svc, Groups: groups, Store: slots[i]})
	}
	rng := rand.New(rand.NewSource(5))
	secrets := make(map[posting.GlobalID]field.Element)
	for l := 0; l < lists; l++ {
		batches := make([][]posting.EncryptedShare, n)
		for e := 0; e < perList; e++ {
			gid := posting.GlobalID(l*perList + e + 1)
			secrets[gid] = field.New(rng.Uint64())
			shares, err := shamir.Split(secrets[gid], k, xs, rng)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range shares {
				batches[i] = append(batches[i], posting.EncryptedShare{GlobalID: gid, Group: 1, Y: sh.Y})
			}
		}
		for i, slot := range slots {
			slot.Upsert(merging.ListID(l), batches[i])
		}
	}

	sink := &parkingSink{slot: slots[0], parked: make(chan struct{}), release: make(chan struct{})}
	slots[0].SetTransferSink(sink)
	slots[0].SetMigrationPolicy(dht.MigrationPolicy{ChunkSize: perList / 3})
	joined := make(chan error, 1)
	go func() { joined <- slots[0].AddNode("n1", store.NewSharded(0)) }()
	select {
	case <-sink.parked:
	case err := <-joined:
		t.Fatalf("join finished without a multi-chunk move to park (err %v)", err)
	}
	refreshed, err := proactive.Reshare(servers, k, nil)
	close(sink.release)
	if err != nil {
		t.Fatalf("reshare during a move: %v", err)
	}
	if refreshed != len(secrets) {
		t.Fatalf("reshare refreshed %d elements, want %d", refreshed, len(secrets))
	}
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if p := slots[0].Pending(); p != 0 {
		t.Fatalf("%d migrations pending after the join", p)
	}
	if dist := slots[0].ListDistribution(); dist["n1"] == 0 {
		t.Fatalf("no list cut over to the new node: %v", dist)
	}

	ys := make([]map[posting.GlobalID]field.Element, n)
	for i, slot := range slots {
		ys[i] = make(map[posting.GlobalID]field.Element)
		for l := 0; l < lists; l++ {
			for _, sh := range slot.Scan(merging.ListID(l), nil) {
				ys[i][sh.GlobalID] = sh.Y
			}
		}
	}
	for gid, secret := range secrets {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				got, err := shamir.Reconstruct([]shamir.Share{{X: xs[a], Y: ys[a][gid]}, {X: xs[b], Y: ys[b][gid]}}, k)
				if err != nil {
					t.Fatal(err)
				}
				if got != secret {
					t.Fatalf("element %d from slots %d and %d reconstructs to %v, want %v", gid, a, b, got, secret)
				}
			}
		}
	}
}
