package dht_test

import (
	"context"
	"fmt"
	"testing"

	"zerber/internal/dht"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// BenchmarkMigrationThroughput measures online rebalance speed: posting
// lists streamed between nodes while the slot keeps serving reads. Each
// iteration joins a fresh node — migrating roughly half the lists to it
// through the two-phase handoff — and then drains it back out, with a
// reader goroutine issuing GetPostingLists against the index server over
// the slot throughout.
// The custom metric reports migrated lists per second of wall time; the
// recorded JSON artifact (BENCH_index.json, `make benchjson`) tracks it
// across commits so rebalance speed cannot silently regress.
func BenchmarkMigrationThroughput(b *testing.B) {
	const lists, sharesPerList = 64, 32

	slot := dht.NewSlot("n0", store.NewSharded(0))
	srv, tok := serve(b, slot)
	all := make([]merging.ListID, lists)
	gid := posting.GlobalID(0)
	for l := 0; l < lists; l++ {
		all[l] = merging.ListID(l)
		shares := make([]posting.EncryptedShare, sharesPerList)
		for i := range shares {
			gid++
			shares[i] = posting.EncryptedShare{GlobalID: gid, Group: 1, Y: 7}
		}
		slot.Upsert(merging.ListID(l), shares)
	}

	// Concurrent serving: one reader hammering the full list set, so
	// every migration pays the routing-lock contention of live traffic.
	ctx, cancel := context.WithCancel(context.Background())
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for ctx.Err() == nil {
			if _, err := srv.GetPostingLists(ctx, tok, all); err != nil && ctx.Err() == nil {
				b.Errorf("read during migration: %v", err)
				return
			}
		}
	}()

	moved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("x%d", i)
		node := store.NewSharded(0)
		if err := slot.AddNode(name, node); err != nil {
			b.Fatalf("join %s: %v", name, err)
		}
		held := len(node.ListLengths())
		moved += held
		if err := slot.RemoveNode(name); err != nil {
			b.Fatalf("leave %s: %v", name, err)
		}
		moved += held
		for _, name := range slot.NodeNames() {
			held, _ := slot.Node(name)
			for lid := range held.ListLengths() {
				if owner, _ := slot.RingOwnerOfList(lid); owner != name {
					b.Fatalf("iteration %d left list %d on %s, ring owner %s", i, lid, name, owner)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "lists/sec")
	b.ReportMetric(float64(moved*sharesPerList)/b.Elapsed().Seconds(), "elements/sec")
	cancel()
	<-readerDone
}
