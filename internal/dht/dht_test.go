package dht_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/dht"
	"zerber/internal/field"
	"zerber/internal/invindex"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/textproc"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

func TestRingOwnershipStable(t *testing.T) {
	r := dht.NewRing()
	r.AddNode("a")
	r.AddNode("b")
	r.AddNode("c")
	// Ownership is deterministic.
	for lid := merging.ListID(0); lid < 100; lid++ {
		o1, err := r.OwnerOfList(lid)
		if err != nil {
			t.Fatal(err)
		}
		o2, _ := r.OwnerOfList(lid)
		if o1 != o2 {
			t.Fatal("ownership not deterministic")
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := dht.NewRing()
	if _, err := r.Owner(42); err == nil {
		t.Error("empty ring must error")
	}
	r.AddNode("a")
	r.AddNode("a") // idempotent
	if r.NumNodes() != 1 {
		t.Errorf("NumNodes = %d", r.NumNodes())
	}
	if !r.RemoveNode("a") || r.RemoveNode("a") {
		t.Error("remove semantics wrong")
	}
}

func TestRingBalance(t *testing.T) {
	r := dht.NewRing()
	for i := 0; i < 5; i++ {
		r.AddNode(fmt.Sprintf("node%d", i))
	}
	counts := map[string]int{}
	for lid := merging.ListID(0); lid < 5000; lid++ {
		o, err := r.OwnerOfList(lid)
		if err != nil {
			t.Fatal(err)
		}
		counts[o]++
	}
	for node, n := range counts {
		if n < 400 || n > 2200 {
			t.Errorf("node %s owns %d of 5000 lists; ring badly balanced", node, n)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	// Consistent hashing: adding one node must not reassign most lists.
	r := dht.NewRing()
	r.AddNode("a")
	r.AddNode("b")
	r.AddNode("c")
	before := map[merging.ListID]string{}
	for lid := merging.ListID(0); lid < 2000; lid++ {
		o, _ := r.OwnerOfList(lid)
		before[lid] = o
	}
	r.AddNode("d")
	moved := 0
	for lid, prev := range before {
		now, _ := r.OwnerOfList(lid)
		if now != prev {
			moved++
			if now != "d" {
				t.Fatalf("list %d moved to %s, not the new node", lid, now)
			}
		}
	}
	// Expect about 1/4 of keys to move; far less than half.
	if moved == 0 || moved > 1000 {
		t.Errorf("%d of 2000 lists moved after one join", moved)
	}
}

// dhtEnv builds a 2-slot (k=2) DHT deployment: one index server per
// slot over a Slot of several physical node stores, plus the usual
// table/vocab/auth plumbing.
type dhtEnv struct {
	slots []*dht.Slot
	apis  []transport.API
	svc   *auth.Service
	table *merging.Table
	voc   *vocab.Vocabulary
}

func newDHTEnv(t *testing.T, nodesPerSlot int) *dhtEnv {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)

	dfs := map[string]int{}
	for i := 0; i < 40; i++ {
		dfs[fmt.Sprintf("term%02d", i)] = 40 - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 16})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())

	e := &dhtEnv{svc: svc, table: table, voc: voc}
	for slot := 0; slot < 2; slot++ {
		s := dht.NewSlot("node0", store.NewSharded(0))
		for n := 1; n < nodesPerSlot; n++ {
			if err := s.AddNode(fmt.Sprintf("node%d", n), store.NewSharded(0)); err != nil {
				t.Fatal(err)
			}
		}
		e.slots = append(e.slots, s)
		e.apis = append(e.apis, server.New(server.Config{
			Name: fmt.Sprintf("slot%d", slot), X: field.Element(slot + 1), Auth: svc, Groups: groups, Store: s,
		}))
	}
	return e
}

func (e *dhtEnv) indexDocs(t *testing.T) *peer.Peer {
	t.Helper()
	p, err := peer.New(peer.Config{
		Name: "site", Servers: e.apis, K: 2, Table: e.table, Vocab: e.voc,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tok := e.svc.Issue("alice")
	b := p.NewBatch()
	for d := 0; d < 20; d++ {
		content := ""
		for i := d % 7; i < 40; i += 7 {
			content += fmt.Sprintf("term%02d ", i)
		}
		if err := b.Add(peer.Document{ID: uint32(d + 1), Content: content, Group: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(tok); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDHTEndToEndSearch(t *testing.T) {
	e := newDHTEnv(t, 3)
	p := e.indexDocs(t)
	tok := e.svc.Issue("alice")

	cl, err := client.New(e.apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := cl.Search(tok, []string{"term00"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle: a plain inverted index over the peer's documents.
	plain := invindex.New()
	for _, id := range p.DocIDs() {
		doc, _ := p.Document(id)
		plain.Add(id, textproc.TermCounts(doc.Content))
	}
	if want := len(plain.Lookup("term00")); len(res) != want {
		t.Fatalf("DHT search found %d docs, plain index says %d", len(res), want)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("queried %d slots, want 2", stats.ServersQueried)
	}
	// Shares really are spread: every physical node holds some lists.
	for si, slot := range e.slots {
		dist := slot.ListDistribution()
		empty := 0
		for _, n := range dist {
			if n == 0 {
				empty++
			}
		}
		if empty == len(dist) {
			t.Errorf("slot %d: all nodes empty", si)
		}
	}
}

func TestDHTNodeJoinMigratesAndKeepsSearching(t *testing.T) {
	e := newDHTEnv(t, 2)
	e.indexDocs(t)
	tok := e.svc.Issue("alice")
	cl, err := client.New(e.apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := cl.Search(tok, []string{"term01"}, 100)
	if err != nil {
		t.Fatal(err)
	}

	// A new node joins slot 0; lists it now owns migrate to it.
	if err := e.slots[0].AddNode("newnode", store.NewSharded(0)); err != nil {
		t.Fatal(err)
	}
	after, _, err := cl.Search(tok, []string{"term01"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("results changed after join: %d -> %d", len(before), len(after))
	}
}

func TestDHTNodeLeaveMigratesAndKeepsSearching(t *testing.T) {
	e := newDHTEnv(t, 3)
	e.indexDocs(t)
	tok := e.svc.Issue("alice")
	cl, err := client.New(e.apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := cl.Search(tok, []string{"term02"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.slots[0].RemoveNode("node1"); err != nil {
		t.Fatal(err)
	}
	after, _, err := cl.Search(tok, []string{"term02"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("results changed after leave: %d -> %d", len(before), len(after))
	}
	if e.slots[0].NumNodes() != 2 {
		t.Errorf("slot has %d nodes after leave", e.slots[0].NumNodes())
	}
}

func TestDHTCannotRemoveLastNode(t *testing.T) {
	e := newDHTEnv(t, 1)
	if err := e.slots[0].RemoveNode("node0"); err == nil {
		t.Error("removing the last node must fail")
	}
}

// TestDHTSlotValidation: the slot's x-coordinate lives on the one server
// above it, so no node can disagree about it; what AddNode must refuse
// is a duplicate name and a store that already holds lists, which would
// be neither authoritative nor ever cleaned up.
func TestDHTSlotValidation(t *testing.T) {
	e := newDHTEnv(t, 1)
	if err := e.slots[0].AddNode("node0", store.NewSharded(0)); err == nil {
		t.Error("duplicate node name must be rejected")
	}
	full := store.NewSharded(0)
	full.Upsert(1, []posting.EncryptedShare{{GlobalID: 1, Group: 1, Y: 7}})
	if err := e.slots[0].AddNode("full", full); err == nil {
		t.Error("a node store that already holds lists must be rejected")
	}
	if _, ok := e.slots[0].Node("full"); ok || e.slots[0].NumNodes() != 1 {
		t.Error("a rejected node joined the slot")
	}
	if err := e.slots[0].RemoveNode("ghost"); err == nil {
		t.Error("removing an unknown node must fail")
	}
}

func TestDHTDeleteRoutesCorrectly(t *testing.T) {
	e := newDHTEnv(t, 3)
	p := e.indexDocs(t)
	tok := e.svc.Issue("alice")
	if err := p.DeleteDocument(tok, 1); err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(e.apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := cl.Search(tok, []string{"term00"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.DocID == 1 {
			t.Fatal("deleted document still findable over the DHT")
		}
	}
}
