package peer

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// testCluster wires n index servers, a merging table over a tiny corpus
// vocabulary, and a shared group table.
type testCluster struct {
	servers []*server.Server
	apis    []transport.API
	svc     *auth.Service
	groups  *auth.GroupTable
	table   *merging.Table
	voc     *vocab.Vocabulary
}

func newCluster(t *testing.T, n int, terms []string) *testCluster {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	dfs := make(map[string]int, len(terms))
	for i, term := range terms {
		dfs[term] = len(terms) - i // descending frequencies
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(terms)
	tc := &testCluster{svc: svc, groups: groups, table: table, voc: voc}
	for i := 0; i < n; i++ {
		s := server.New(server.Config{
			Name:   fmt.Sprintf("ix%d", i),
			X:      field.Element(i + 1),
			Auth:   svc,
			Groups: groups,
		})
		tc.servers = append(tc.servers, s)
		tc.apis = append(tc.apis, s)
	}
	return tc
}

func (tc *testCluster) newPeer(t *testing.T, name string, k int, seed int64) *Peer {
	t.Helper()
	p, err := New(Config{
		Name:    name,
		Servers: tc.apis,
		K:       k,
		Table:   tc.table,
		Vocab:   tc.voc,
		Rand:    rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var corpusTerms = []string{"martha", "imclone", "layoff", "merger", "quarterly", "budget"}

func TestIndexDocumentReachesAllServers(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 1)
	tok := tc.svc.Issue("alice")

	doc := Document{ID: 1, Name: "memo.txt", Content: "martha imclone martha", Group: 1}
	if err := p.IndexDocument(tok, doc); err != nil {
		t.Fatal(err)
	}
	// Two distinct terms -> 2 elements on each of the 3 servers.
	for i, s := range tc.servers {
		if got := s.Store().TotalElements(); got != 2 {
			t.Errorf("server %d has %d elements, want 2", i, got)
		}
	}
	if p.NumDocs() != 1 {
		t.Errorf("NumDocs = %d", p.NumDocs())
	}
	if refDocs(p, "martha") != 1 {
		t.Error("refs do not name martha")
	}
}

// refDocs counts the documents whose committed refs name term: the
// owner's local index (§7.2) that later mutations diff against.
func refDocs(p *Peer, term string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, refs := range p.refs {
		if _, ok := refs[term]; ok {
			n++
		}
	}
	return n
}

func TestDocIDRangeValidation(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 1)
	err := p.IndexDocument(tc.svc.Issue("alice"), Document{ID: 1 << 30, Content: "martha", Group: 1})
	if !errors.Is(err, ErrDocIDRange) {
		t.Errorf("got %v, want ErrDocIDRange", err)
	}
}

func TestDeleteDocumentRemovesAllElements(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 2)
	tok := tc.svc.Issue("alice")

	if err := p.IndexDocument(tok, Document{ID: 1, Content: "martha imclone layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteDocument(tok, 1); err != nil {
		t.Fatal(err)
	}
	for i, s := range tc.servers {
		if got := s.Store().TotalElements(); got != 0 {
			t.Errorf("server %d still has %d elements", i, got)
		}
	}
	p.mu.RLock()
	refs := len(p.refs)
	p.mu.RUnlock()
	if p.NumDocs() != 0 || refs != 0 {
		t.Error("local state not cleaned up")
	}
	if err := p.DeleteDocument(tok, 1); !errors.Is(err, ErrUnknownDoc) {
		t.Errorf("double delete: %v", err)
	}
}

func TestUpdateDocumentSendsOnlyDiff(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 3)
	tok := tc.svc.Issue("alice")

	if err := p.IndexDocument(tok, Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	before := tc.servers[0].StatsSnapshot()

	// "martha" unchanged (same tf), "imclone" removed, "layoff" added.
	if err := p.UpdateDocument(tok, Document{ID: 1, Content: "martha layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	after := tc.servers[0].StatsSnapshot()
	if inserts := after.Inserts - before.Inserts; inserts != 1 {
		t.Errorf("update inserted %d elements, want 1 (only the new term)", inserts)
	}
	if deletes := after.Deletes - before.Deletes; deletes != 1 {
		t.Errorf("update deleted %d elements, want 1 (only the removed term)", deletes)
	}
	if got := tc.servers[0].Store().TotalElements(); got != 2 {
		t.Errorf("server holds %d elements after update, want 2", got)
	}
}

func TestUpdateUnknownDocIndexesFresh(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 4)
	tok := tc.svc.Issue("alice")
	if err := p.UpdateDocument(tok, Document{ID: 7, Content: "budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if p.NumDocs() != 1 {
		t.Error("update of unknown doc must index it")
	}
}

func TestBatchFlushAtomicity(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 5)
	tok := tc.svc.Issue("alice")

	b := p.NewBatch()
	if err := b.Add(Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Document{ID: 2, Content: "layoff merger budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Elements() != 5 {
		t.Fatalf("batch holds %d docs / %d elements", b.Len(), b.Elements())
	}
	// Nothing sent before flush.
	if tc.servers[0].Store().TotalElements() != 0 {
		t.Fatal("batch leaked elements before Flush")
	}
	if err := b.Flush(tok); err != nil {
		t.Fatal(err)
	}
	for i, s := range tc.servers {
		if got := s.Store().TotalElements(); got != 5 {
			t.Errorf("server %d has %d elements, want 5", i, got)
		}
	}
	if p.NumDocs() != 2 {
		t.Errorf("NumDocs = %d, want 2", p.NumDocs())
	}
	// Batch is reusable after flush.
	if err := b.Add(Document{ID: 3, Content: "quarterly", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err != nil {
		t.Fatal(err)
	}
	if p.NumDocs() != 3 {
		t.Error("batch not reusable after flush")
	}
}

func TestBatchShufflesAcrossDocuments(t *testing.T) {
	// The flush order must interleave documents: find the positions of
	// doc-1 elements in the server arrival order and check they are not
	// all a contiguous prefix (overwhelmingly unlikely after a shuffle of
	// 12 elements, and deterministic under the seeded RNG).
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 6)
	tok := tc.svc.Issue("alice")

	b := p.NewBatch()
	if err := b.Add(Document{ID: 1, Content: "martha imclone layoff merger quarterly budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Document{ID: 2, Content: "martha imclone layoff merger quarterly budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err != nil {
		t.Fatal(err)
	}
	// Reconstruct arrival order from the raw lists: collect (list, pos)
	// per element and map global IDs back to docs via decryption with
	// k=2 servers' shares. Instead, simpler: the peer's refs tell us
	// which global IDs belong to doc 1.
	doc1 := make(map[uint64]bool)
	p.mu.RLock()
	for _, ref := range p.refs[1] {
		doc1[uint64(ref.gid)] = true
	}
	p.mu.RUnlock()
	var order []bool // true = doc1 element, in arrival order per list
	for _, lid := range tc.table.ListsOf(corpusTerms) {
		for _, sh := range tc.servers[0].Store().Scan(lid, nil) {
			order = append(order, doc1[uint64(sh.GlobalID)])
		}
	}
	if len(order) != 12 {
		t.Fatalf("expected 12 elements, got %d", len(order))
	}
	// If unshuffled, each list would hold doc1's element before doc2's in
	// strict alternation per list-pair; detect the degenerate case where
	// every doc1 element precedes every doc2 element within each list.
	interleaved := false
	for i := 1; i < len(order); i++ {
		if order[i] && !order[i-1] {
			interleaved = true
		}
	}
	if !interleaved {
		t.Error("batch flush did not interleave documents")
	}
}

func TestSnippetAccessControl(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 7)
	tok := tc.svc.Issue("alice")
	if err := p.IndexDocument(tok, Document{ID: 1, Content: "the martha memo about imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("in", 1)
	groups.Add("out", 2)
	s, err := p.Snippet(1, []string{"imclone"}, 50, groups.GroupSetOf("in"))
	if err != nil {
		t.Fatal(err)
	}
	if s == "" {
		t.Error("empty snippet")
	}
	if _, err := p.Snippet(1, []string{"imclone"}, 50, groups.GroupSetOf("out")); err == nil {
		t.Error("snippet served to non-member")
	}
	if _, err := p.Snippet(99, nil, 50, auth.GroupSet{}); !errors.Is(err, ErrUnknownDoc) {
		t.Errorf("unknown doc: %v", err)
	}
}

func TestInsertUnauthorizedGroupFails(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	p := tc.newPeer(t, "peer1", 2, 8)
	tok := tc.svc.Issue("alice")
	err := p.IndexDocument(tok, Document{ID: 1, Content: "martha", Group: 42})
	if err == nil {
		t.Fatal("indexing into a foreign group must fail")
	}
	if tc.servers[0].Store().TotalElements() != 0 {
		t.Error("unauthorized insert left elements behind")
	}
}

func TestNewValidation(t *testing.T) {
	tc := newCluster(t, 2, corpusTerms)
	if _, err := New(Config{Servers: tc.apis, K: 3, Table: tc.table, Vocab: tc.voc}); err == nil {
		t.Error("k > n must be rejected")
	}
	if _, err := New(Config{Servers: tc.apis, K: 2}); err == nil {
		t.Error("missing table/vocab must be rejected")
	}
}
