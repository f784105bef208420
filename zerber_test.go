package zerber_test

import (
	"fmt"
	"strings"
	"testing"

	"zerber"
	"zerber/internal/peer"
)

// demoDocFreqs is a small corpus-statistics table for cluster setup.
func demoDocFreqs() map[string]int {
	return map[string]int{
		"the": 100, "project": 60, "budget": 40, "meeting": 30,
		"martha": 20, "imclone": 10, "layoff": 8, "merger": 6,
		"chemical": 4, "process": 4, "compound": 2, "hesselhofer": 1,
	}
}

func newDemoCluster(t *testing.T, opts zerber.Options) *zerber.Cluster {
	t.Helper()
	c, err := zerber.NewCluster(demoDocFreqs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterDefaults(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{})
	if c.N() != 3 || c.K() != 2 {
		t.Errorf("defaults N=%d K=%d, want 3/2", c.N(), c.K())
	}
	if c.RValue() <= 0 {
		t.Errorf("RValue = %v", c.RValue())
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := zerber.NewCluster(demoDocFreqs(), zerber.Options{N: 2, K: 3}); err == nil {
		t.Error("K > N must be rejected")
	}
	if _, err := zerber.NewCluster(nil, zerber.Options{}); err == nil {
		t.Error("empty corpus statistics must be rejected")
	}
}

func TestEndToEndSearchWithSnippets(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{Seed: 1})
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

	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(tok, []string{"imclone"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("Search(imclone) = %+v", res)
	}
	if !strings.Contains(strings.ToLower(res[0].Snippet), "imclone") {
		t.Errorf("snippet %q lacks the query term", res[0].Snippet)
	}
	if res[0].Peer != "site1" {
		t.Errorf("peer = %q", res[0].Peer)
	}
}

func TestMultiGroupIsolation(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{Seed: 2})
	c.AddUser("alice", 1)
	c.AddUser("bob", 2)
	aliceTok := c.IssueToken("alice")
	bobTok := c.IssueToken("bob")

	p, err := c.NewPeer("site1", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(aliceTok, peer.Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(bobTok, peer.Document{ID: 2, Content: "martha merger", Group: 2}); err != nil {
		t.Fatal(err)
	}

	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(aliceTok, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("alice results = %+v", res)
	}
	res, err = s.Search(bobTok, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 2 {
		t.Fatalf("bob results = %+v", res)
	}

	// Move doc 1 to group 2 with unchanged content: every element
	// carries the group that filters it, so all of them must be resent
	// under group 2 and the group-1 ones deleted.
	c.AddUser("owner", 1)
	c.AddUser("owner", 2)
	if err := p.UpdateDocument(c.IssueToken("owner"), peer.Document{ID: 1, Content: "martha imclone", Group: 2}); err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"martha", "imclone"} {
		res, err := s.Search(bobTok, []string{term}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !hasDoc(res, 1) {
			t.Errorf("bob (group 2) cannot find the moved doc by %q: %+v", term, res)
		}
		res, err = s.Search(aliceTok, []string{term}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if hasDoc(res, 1) {
			t.Errorf("alice (group 1 only) still finds the moved doc by %q", term)
		}
	}
	gids := p.ElementGIDs()
	for i, srv := range c.Servers() {
		moved := 0
		for lid := range srv.Store().ListLengths() {
			for _, sh := range srv.Store().Scan(lid, nil) {
				if gids[sh.GlobalID] != 1 {
					continue
				}
				moved++
				if sh.Group != 2 {
					t.Errorf("server %d: moved doc's element %d carries group %d", i, sh.GlobalID, sh.Group)
				}
			}
		}
		if moved != 2 || srv.Store().TotalElements() != 4 {
			t.Errorf("server %d holds %d of the moved doc's elements and %d in all, want 2 and 4",
				i, moved, srv.Store().TotalElements())
		}
	}
}

func hasDoc(res []zerber.Result, id uint32) bool {
	for _, r := range res {
		if r.DocID == id {
			return true
		}
	}
	return false
}

func TestMembershipChurn(t *testing.T) {
	// §2: "Changes in group membership will be immediately reflected in
	// the query answers."
	c := newDemoCluster(t, zerber.Options{Seed: 3})
	c.AddUser("alice", 1)
	c.AddUser("carol", 1)
	aliceTok := c.IssueToken("alice")
	carolTok := c.IssueToken("carol")

	p, err := c.NewPeer("site1", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(aliceTok, peer.Document{ID: 1, Content: "merger budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(carolTok, []string{"merger"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("carol (member) sees %d results", len(res))
	}
	// Revoke carol: she immediately loses access — no re-encryption, no
	// key revocation, exactly the management story of §5.
	c.RemoveUser("carol", 1)
	res, err = s.Search(carolTok, []string{"merger"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("revoked carol still sees %d results", len(res))
	}
}

func TestDocumentLifecycle(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{Seed: 4})
	c.AddUser("alice", 1)
	tok := c.IssueToken("alice")
	p, err := c.NewPeer("site1", 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}

	if err := p.IndexDocument(tok, peer.Document{ID: 1, Content: "budget meeting", Group: 1}); err != nil {
		t.Fatal(err)
	}
	// Update: replace "budget" with "merger".
	if err := p.UpdateDocument(tok, peer.Document{ID: 1, Content: "merger meeting", Group: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(tok, []string{"budget"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("stale term still findable after update")
	}
	res, err = s.Search(tok, []string{"merger"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Error("new term not findable after update")
	}
	// Delete.
	if err := p.DeleteDocument(tok, 1); err != nil {
		t.Fatal(err)
	}
	res, err = s.Search(tok, []string{"merger"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("deleted document still findable")
	}
	for _, srv := range c.Servers() {
		if srv.Store().TotalElements() != 0 {
			t.Error("servers retain elements after document deletion")
		}
	}
}

func TestProactiveReshareViaCluster(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{Seed: 8})
	c.AddUser("alice", 1)
	tok := c.IssueToken("alice")
	p, err := c.NewPeer("site1", 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(tok, peer.Document{ID: 1, Content: "martha imclone budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := c.ProactiveReshare()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("refreshed %d elements, want 3", n)
	}
	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(tok, []string{"imclone"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("post-reshare search broken: %v", res)
	}
}

func TestDuplicatePeerName(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{})
	if _, err := c.NewPeer("dup", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewPeer("dup", 2); err == nil {
		t.Error("duplicate peer name accepted")
	}
}

// TestSearcherSearchTopK: a Searcher's top-k query ranks the user's
// accessible documents by summed term frequency, ties by ascending
// document ID, cuts at k, and resolves every hit's snippet and peer as
// Search does.
func TestSearcherSearchTopK(t *testing.T) {
	c := newDemoCluster(t, zerber.Options{Seed: 5, M: 2, Heuristic: zerber.UDM})
	c.AddUser("alice", 1)
	c.AddUser("owner", 1)
	c.AddUser("owner", 2)
	tok := c.IssueToken("owner")
	p, err := c.NewPeer("site1", 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []peer.Document{
		{ID: 1, Content: "martha imclone budget merger", Group: 1},
		{ID: 2, Content: "martha martha martha layoff", Group: 1},
		{ID: 3, Content: "martha martha martha martha martha", Group: 2}, // not alice's
		{ID: 4, Content: "martha budget", Group: 1},
	} {
		if err := p.IndexDocument(tok, d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	alice := c.IssueToken("alice")
	res, err := s.SearchTopK(alice, []string{"martha"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].DocID != 2 || res[0].Score != 3 || res[1].DocID != 1 || res[1].Score != 1 {
		t.Fatalf("SearchTopK(martha, 2) = %+v, want doc 2 (score 3), then doc 1 (score 1)", res)
	}
	for _, r := range res {
		if r.Peer != "site1" || !strings.Contains(strings.ToLower(r.Snippet), "martha") {
			t.Errorf("doc %d: peer %q, snippet %q", r.DocID, r.Peer, r.Snippet)
		}
	}
}

func TestSuggestOptions(t *testing.T) {
	// Build a Zipfian corpus statistic large enough for a real sweep.
	dfs := make(map[string]int)
	for i := 0; i < 3000; i++ {
		dfs[fmt.Sprintf("t%04d", i)] = 1 + 30000/(i+1)
	}
	opts, err := zerber.SuggestOptions(dfs, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opts.M < 2 || opts.R <= 0 || opts.RareCutoff <= 0 {
		t.Fatalf("suggested options look wrong: %+v", opts)
	}
	// The suggested options must build a working cluster.
	c, err := zerber.NewCluster(dfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.RValue() <= 0 {
		t.Errorf("RValue = %v", c.RValue())
	}
	// Constrained variant: r capped hard means fewer lists (more merging).
	tight, err := zerber.SuggestOptions(dfs, nil, c.RValue()/2, 0)
	if err == nil && tight.M > opts.M {
		t.Errorf("tighter r cap chose more lists (%d > %d)", tight.M, opts.M)
	}
	// Infeasible constraints must error.
	if _, err := zerber.SuggestOptions(dfs, nil, 1e-12, 0); err == nil {
		t.Error("impossible constraint accepted")
	}
}

func TestOpaqueUserIDs(t *testing.T) {
	// §7.1 extension: index servers must never see real identities.
	c, err := zerber.NewCluster(demoDocFreqs(), zerber.Options{Seed: 9, OpaqueUserIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("alice", 1)
	tok := c.IssueToken("alice")
	p, err := c.NewPeer("site1", 14)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(tok, peer.Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Searcher()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(tok, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("search under pseudonyms = %v", res)
	}
	// The server-side group table holds only pseudonyms.
	for _, srv := range c.Servers() {
		for _, member := range srv.Groups().MembersOf(1) {
			if strings.Contains(string(member), "alice") {
				t.Fatal("real identity visible on an index server")
			}
		}
	}
	// Revocation still works through the pseudonym mapping.
	c.RemoveUser("alice", 1)
	res, err = s.Search(tok, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("revocation broken under opaque IDs")
	}
}

func TestAllMergingHeuristicsWork(t *testing.T) {
	for _, h := range []zerber.Heuristic{zerber.DFM, zerber.BFM, zerber.UDM} {
		c, err := zerber.NewCluster(demoDocFreqs(), zerber.Options{Heuristic: h, M: 3, R: 3, Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		c.AddUser("alice", 1)
		tok := c.IssueToken("alice")
		p, err := c.NewPeer("site1", 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.IndexDocument(tok, peer.Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
			t.Fatal(err)
		}
		s, err := c.Searcher()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Search(tok, []string{"imclone"}, 5)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if len(res) != 1 {
			t.Errorf("%s: %d results", h, len(res))
		}
	}
}
