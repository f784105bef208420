package zerber_test

// End-to-end tests for elastic membership through the public Cluster
// API: a DHT-layout cluster must keep answering queries identically
// while nodes join and leave, and proactive resharing must coordinate
// with in-flight migration instead of racing it.

import (
	"strings"
	"testing"

	"zerber"
	"zerber/internal/peer"
)

func newChurnCluster(t *testing.T) (*zerber.Cluster, zerber.Token) {
	t.Helper()
	c := newDemoCluster(t, zerber.Options{Seed: 11, DHTNodes: 2})
	c.AddUser("alice", 1)
	tok := c.IssueToken("alice")
	p, err := c.NewPeer("site1", 7)
	if err != nil {
		t.Fatal(err)
	}
	docs := []peer.Document{
		{ID: 1, Name: "memo.eml", Content: "Martha sold ImClone before the layoff announcement.", Group: 1},
		{ID: 2, Name: "budget.doc", Content: "The project budget meeting covered the merger.", Group: 1},
		{ID: 3, Name: "lab.pdf", Content: "The chemical process uses a new compound.", Group: 1},
	}
	for _, d := range docs {
		if err := p.IndexDocument(tok, d); err != nil {
			t.Fatal(err)
		}
	}
	return c, tok
}

// expectDocs runs each query and checks the result set.
func expectDocs(t *testing.T, c *zerber.Cluster, tok zerber.Token, want map[string][]uint32) {
	t.Helper()
	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	for term, ids := range want {
		res, err := s.Search(tok, []string{term}, 10)
		if err != nil {
			t.Fatalf("Search(%s): %v", term, err)
		}
		got := make(map[uint32]bool, len(res))
		for _, r := range res {
			got[r.DocID] = true
		}
		if len(got) != len(ids) {
			t.Fatalf("Search(%s) = %+v, want docs %v", term, res, ids)
		}
		for _, id := range ids {
			if !got[id] {
				t.Fatalf("Search(%s) = %+v, missing doc %d", term, res, id)
			}
		}
	}
}

func TestClusterJoinLeaveServesThroughout(t *testing.T) {
	c, tok := newChurnCluster(t)
	want := map[string][]uint32{
		"imclone": {1}, "budget": {2}, "compound": {3}, "the": {1, 2, 3},
	}
	expectDocs(t, c, tok, want)

	if got := c.Nodes(); len(got) != 2 {
		t.Fatalf("Nodes() = %v, want 2 names", got)
	}
	if err := c.JoinNode("n9"); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	expectDocs(t, c, tok, want)

	if err := c.LeaveNode("n0"); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	got := c.Nodes()
	if len(got) != 2 || got[0] != "n1" || got[1] != "n9" {
		t.Fatalf("Nodes() after churn = %v, want [n1 n9]", got)
	}
	expectDocs(t, c, tok, want)

	// New documents land on the post-churn topology.
	p, err := c.NewPeer("site2", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(tok, peer.Document{ID: 4, Name: "m.txt", Content: "merger process", Group: 1}); err != nil {
		t.Fatal(err)
	}
	expectDocs(t, c, tok, map[string][]uint32{"merger": {2, 4}})
}

func TestClusterChurnGuards(t *testing.T) {
	c, _ := newChurnCluster(t)
	if err := c.JoinNode("n0"); err == nil {
		t.Error("joining a present node must fail")
	}
	if err := c.LeaveNode("ghost"); err == nil {
		t.Error("leaving an unknown node must fail")
	}
	if err := c.LeaveNode("n0"); err != nil {
		t.Fatalf("LeaveNode(n0): %v", err)
	}
	if err := c.LeaveNode("n1"); err == nil {
		t.Error("removing the last node of a slot must fail")
	}

	mono := newDemoCluster(t, zerber.Options{Seed: 3})
	if err := mono.JoinNode("n9"); err == nil || !strings.Contains(err.Error(), "DHTNodes") {
		t.Errorf("monolithic JoinNode err = %v", err)
	}
	if mono.Nodes() != nil {
		t.Errorf("monolithic Nodes() = %v, want nil", mono.Nodes())
	}
}

func TestClusterReshareUnderChurn(t *testing.T) {
	c, tok := newChurnCluster(t)
	// Quiescent cluster: the round over the slot servers refreshes every
	// element.
	n, err := c.ProactiveReshare()
	if err != nil {
		t.Fatalf("ProactiveReshare: %v", err)
	}
	if n == 0 {
		t.Fatal("reshare refreshed nothing")
	}
	expectDocs(t, c, tok, map[string][]uint32{"imclone": {1}})

	// Post-churn quiescence reshares fine too.
	if err := c.JoinNode("n9"); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if _, err := c.ProactiveReshare(); err != nil {
		t.Fatalf("ProactiveReshare after churn: %v", err)
	}
	expectDocs(t, c, tok, map[string][]uint32{"the": {1, 2, 3}})
}

// TestClusterWireTargets pins the endpoints a deployment serves on its
// wire: APIs, one server per share slot whatever the layout.
func TestClusterWireTargets(t *testing.T) {
	c, _ := newChurnCluster(t)
	if len(c.APIs()) != 3 || len(c.Servers()) != 3 {
		t.Fatalf("APIs=%d Servers=%d, want one server per slot, 3/3",
			len(c.APIs()), len(c.Servers()))
	}
	mono := newDemoCluster(t, zerber.Options{Seed: 3})
	if len(mono.APIs()) != 3 || len(mono.Servers()) != 3 {
		t.Fatalf("monolithic APIs=%d Servers=%d, want 3/3",
			len(mono.APIs()), len(mono.Servers()))
	}
}

// TestClusterDHTRefusesWrittenStoreDir pins what a restart of a DHT
// cluster on its disk StoreDir does: slot membership is not persisted,
// so the cluster cannot tell a node's lists from leftovers, and
// NewCluster refuses a node store that already holds elements instead
// of adopting it.
func TestClusterDHTRefusesWrittenStoreDir(t *testing.T) {
	opts := zerber.Options{Seed: 11, DHTNodes: 2, StoreEngine: "disk", StoreDir: t.TempDir()}
	c := newDemoCluster(t, opts)
	c.AddUser("alice", 1)
	tok := c.IssueToken("alice")
	p, err := c.NewPeer("site1", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{
		"Martha sold ImClone before the layoff announcement.",
		"The project budget meeting covered the merger.",
		"The chemical process uses a new compound.",
	} {
		if err := p.IndexDocument(tok, peer.Document{ID: uint32(i + 1), Name: "d", Content: text, Group: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = zerber.NewCluster(demoDocFreqs(), opts)
	if err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("reopening a written DHT StoreDir: err = %v, want a refusal", err)
	}
}
