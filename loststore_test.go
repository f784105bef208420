package zerber_test

import (
	"fmt"
	"testing"

	"zerber"
	"zerber/internal/client"
	"zerber/internal/peer"
)

// TestLostStoreCountsUnderReplicated reproduces a server that lost its
// store (a disk server restarted on an empty directory): server 0 of a
// 3-server, k=2 cluster answers every lookup with empty lists. A
// client that asks servers 0 and 1 holds every element on one server
// only, decrypts none of them and, on each plan, counts each of them
// in Stats.UnderReplicated rather than dropping it unseen. Asking a
// further server for those rows is not done yet.
func TestLostStoreCountsUnderReplicated(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{N: 3, K: 2, Seed: 5})
	c.AddUser("alice", 1)
	tok := c.IssueToken("alice")
	p, err := c.NewPeer("site1", 7)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 20; id++ {
		content := fmt.Sprintf("imclone budget memo %d", id)
		if err := p.IndexDocument(tok, peer.Document{ID: id, Content: content, Group: 1}); err != nil {
			t.Fatal(err)
		}
	}
	lost := c.Servers()[0].Store()
	for lid := range lost.ListLengths() {
		lost.DropList(lid)
	}
	if n := lost.TotalElements(); n != 0 {
		t.Fatalf("server 0 still holds %d elements", n)
	}

	cl, err := client.New(c.APIs(), c.K(), c.Table(), c.Vocab())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetTuning(client.Tuning{Fanout: c.K()}) // servers 0 and 1, no hedge
	query := []string{"imclone"}
	lid := c.Table().ListOf(query[0])
	held := len(c.Servers()[1].Store().Scan(lid, nil)) // every element is alice's
	if held == 0 {
		t.Fatal("server 1 holds nothing of the list")
	}
	for _, plan := range []string{"exact", "top-k"} {
		var stats client.Stats
		if plan == "exact" {
			_, stats, err = cl.Search(tok, query, 10)
		} else {
			_, stats, err = cl.SearchTopK(tok, query, 10) // one term: the streamed plan
		}
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if stats.UnderReplicated != held || stats.ElementsFetched != 0 {
			t.Errorf("%s: %d elements under-replicated and %d decrypted, want %d and 0",
				plan, stats.UnderReplicated, stats.ElementsFetched, held)
		}
	}
	_, stats, err := cl.SearchTopK(tok, []string{"imclone", "budget"}, 10) // the whole-list plan
	if err != nil {
		t.Fatal(err)
	}
	if stats.UnderReplicated == 0 {
		t.Errorf("whole-list top-k: no element counted under-replicated (%d decrypted)", stats.ElementsFetched)
	}
}
