package peer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// storeEngines names the storage engines every recovery scenario must
// hold on: the lock-striped Sharded store with one stripe ("memory",
// the single-lock reference) and with the default count.
var storeEngines = []struct {
	name   string
	shards int
}{
	{"memory", 1},
	{"sharded", 0},
}

// newEngineCluster is newCluster with a selectable storage engine.
func newEngineCluster(t *testing.T, n int, terms []string, shards int) *testCluster {
	t.Helper()
	return newStoreCluster(t, n, terms, func(int) store.Store { return store.NewSharded(shards) })
}

// newStoreCluster is newCluster over the stores mk opens, one a server.
func newStoreCluster(t *testing.T, n int, terms []string, mk func(server int) store.Store) *testCluster {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	dfs := make(map[string]int, len(terms))
	for i, term := range terms {
		dfs[term] = len(terms) - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{svc: svc, groups: groups, table: table, voc: vocab.NewFromTerms(terms)}
	for i := 0; i < n; i++ {
		s := server.New(server.Config{
			Name:   fmt.Sprintf("ix%d", i),
			X:      field.Element(i + 1),
			Auth:   svc,
			Groups: groups,
			Store:  mk(i),
		})
		tc.servers = append(tc.servers, s)
		tc.apis = append(tc.apis, s)
	}
	return tc
}

// failStageOnce fails the first Apply of the given stage on its way in
// — the server never sees it — simulating a server outage between the
// two stages of a mutation.
type failStageOnce struct {
	transport.API
	stage  uint8
	failed bool
}

func (f *failStageOnce) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if !f.failed && op.Stage == f.stage {
		f.failed = true
		return errors.New("injected outage")
	}
	return f.API.Apply(ctx, tok, op, inserts, deletes)
}

// duplicatingAPI delivers every Apply twice, simulating a network layer
// that redelivers requests (or a client that retries after losing the
// response). With exactly-once mutations the double delivery must be
// invisible in both state and stats.
type duplicatingAPI struct{ transport.API }

func (d duplicatingAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if err := d.API.Apply(ctx, tok, op, inserts, deletes); err != nil {
		return err
	}
	return d.API.Apply(ctx, tok, op, inserts, deletes)
}

// gidsOf collects the global IDs a peer's committed refs expect for one
// document.
func gidsOf(t *testing.T, p *Peer, docID uint32) map[posting.GlobalID]string {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[posting.GlobalID]string)
	for term, ref := range p.refs[docID] {
		out[ref.gid] = term
	}
	return out
}

// assertExactlyExpected fails unless every server holds exactly the
// expected global IDs — no orphans, no losses.
func assertExactlyExpected(t *testing.T, tc *testCluster, expected map[posting.GlobalID]string) {
	t.Helper()
	for i, s := range tc.servers {
		seen := make(map[posting.GlobalID]bool)
		for lid := range s.Store().ListLengths() {
			for _, sh := range s.Store().Scan(lid, nil) {
				if _, want := expected[sh.GlobalID]; !want {
					t.Errorf("server %d: orphaned element %d in list %d", i, sh.GlobalID, lid)
				}
				if seen[sh.GlobalID] {
					t.Errorf("server %d: element %d stored twice", i, sh.GlobalID)
				}
				seen[sh.GlobalID] = true
			}
		}
		for gid, term := range expected {
			if !seen[gid] {
				t.Errorf("server %d: element %d (%q) missing", i, gid, term)
			}
		}
	}
}

// TestUpdateRecoveryAfterCrash is the acceptance scenario: a server
// fails between the insert and delete stages of an UpdateDocument, the
// peer crashes, restarts on its journal, and Recover converges — zero
// orphaned global IDs on any server and retrieval returning only the
// updated document — on every storage engine.
func TestUpdateRecoveryAfterCrash(t *testing.T) {
	for _, eng := range storeEngines {
		t.Run(eng.name, func(t *testing.T) {
			tc := newEngineCluster(t, 3, corpusTerms, eng.shards)
			tc.groups.Add("alice", 1)
			tok := tc.svc.Issue("alice")
			jpath := filepath.Join(t.TempDir(), "site.journal")

			flaky := &failStageOnce{API: tc.apis[1], stage: transport.StageDelete}
			apis := []transport.API{tc.apis[0], flaky, tc.apis[2]}
			cfg := Config{
				Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
				Rand: rand.New(rand.NewSource(11)), JournalPath: jpath,
			}
			p1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v1 := Document{ID: 1, Name: "memo", Content: "martha imclone", Group: 1}
			if err := p1.IndexDocument(tok, v1); err != nil {
				t.Fatal(err)
			}

			// The update keeps "martha", deletes "imclone", inserts
			// "layoff". The injected outage hits the delete stage on
			// server 1. The stage goes to the servers concurrently, so
			// which of the others already deleted the old element is not
			// fixed; what is: the delete stage ran, so every server holds
			// the fresh element, and the server that failed still holds
			// both generations.
			old := gidsOf(t, p1, 1)
			v2 := Document{ID: 1, Name: "memo", Content: "martha layoff", Group: 1}
			if err := p1.UpdateDocument(tok, v2); err == nil {
				t.Fatal("update must surface the injected outage")
			}
			for i, s := range tc.servers {
				fresh := 0
				for lid := range s.Store().ListLengths() {
					for _, sh := range s.Store().Scan(lid, nil) {
						if _, was := old[sh.GlobalID]; !was {
							fresh++
						}
					}
				}
				if fresh != 1 {
					t.Fatalf("server %d holds %d fresh elements, want the one inserted", i, fresh)
				}
			}
			if got := tc.servers[1].Store().TotalElements(); got != 3 {
				t.Fatalf("the failed server should still hold both generations, has %d elements", got)
			}
			if err := p1.Close(); err != nil { // crash: drop the peer
				t.Fatal(err)
			}

			cfg.Rand = rand.New(rand.NewSource(12)) // a restart has fresh randomness
			p2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			if got := p2.PendingOps(); got != 1 {
				t.Fatalf("PendingOps after restart = %d, want 1", got)
			}
			// The uncommitted update must not be visible locally yet.
			if doc, _ := p2.Document(1); doc.Content != v1.Content {
				t.Fatalf("pre-recovery content %q, want v1", doc.Content)
			}
			done, err := p2.Recover(tok)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if done != 1 {
				t.Fatalf("Recover completed %d ops, want 1", done)
			}
			if doc, _ := p2.Document(1); doc.Content != v2.Content {
				t.Fatalf("post-recovery content %q, want v2", doc.Content)
			}

			// Zero orphans: every server holds exactly v2's elements.
			expected := gidsOf(t, p2, 1)
			if len(expected) != 2 {
				t.Fatalf("expected 2 refs, got %d", len(expected))
			}
			assertExactlyExpected(t, tc, expected)

			// Retrieval returns the updated document exactly once, and
			// the removed term no longer matches it.
			cl, err := client.New(tc.apis, 2, tc.table, tc.voc)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := cl.Search(tok, []string{"layoff"}, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].DocID != 1 {
				t.Fatalf("search for updated term: %v, want exactly doc 1", res)
			}
			if res, _, _ := cl.Search(tok, []string{"imclone"}, 10); len(res) != 0 {
				t.Fatalf("removed term still matches: %v", res)
			}

			// Recovering again (a second crash-replay) is a no-op.
			stats := tc.servers[0].StatsSnapshot()
			if done, err := p2.Recover(tok); err != nil || done != 0 {
				t.Fatalf("second Recover: %d, %v", done, err)
			}
			if tc.servers[0].StatsSnapshot() != stats {
				t.Error("idle Recover touched the servers")
			}
		})
	}
}

// TestCrashMidInsertStage crashes the peer while the insert stage is
// only partially acknowledged; after restart the journaled payload is
// resent byte-identically, so cross-server share pairs reconstruct the
// same elements.
func TestCrashMidInsertStage(t *testing.T) {
	for _, eng := range storeEngines {
		t.Run(eng.name, func(t *testing.T) {
			tc := newEngineCluster(t, 3, corpusTerms, eng.shards)
			tc.groups.Add("alice", 1)
			tok := tc.svc.Issue("alice")
			jpath := filepath.Join(t.TempDir(), "site.journal")

			flaky := &failStageOnce{API: tc.apis[2], stage: transport.StageInsert}
			apis := []transport.API{tc.apis[0], tc.apis[1], flaky}
			cfg := Config{
				Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
				Rand: rand.New(rand.NewSource(21)), JournalPath: jpath,
			}
			p1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v1 := Document{ID: 1, Content: "martha imclone layoff", Group: 1}
			if err := p1.IndexDocument(tok, v1); err == nil {
				t.Fatal("index must surface the injected outage")
			}
			if err := p1.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.Rand = rand.New(rand.NewSource(22))
			p2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			if _, err := p2.Recover(tok); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			expected := gidsOf(t, p2, 1)
			if len(expected) != 3 {
				t.Fatalf("expected 3 refs, got %d", len(expected))
			}
			assertExactlyExpected(t, tc, expected)

			// Byte-identical resend: shares from the pre-crash servers
			// and the post-crash server must decode consistently.
			for _, pair := range [][2]int{{0, 2}, {1, 2}} {
				a, b := tc.servers[pair[0]], tc.servers[pair[1]]
				xs := []field.Element{a.XCoord(), b.XCoord()}
				for lid := range a.Store().ListLengths() {
					byID := make(map[posting.GlobalID]posting.EncryptedShare)
					for _, sh := range b.Store().Scan(lid, nil) {
						byID[sh.GlobalID] = sh
					}
					for _, sh := range a.Store().Scan(lid, nil) {
						other, ok := byID[sh.GlobalID]
						if !ok {
							t.Fatalf("servers %v: element %d missing", pair, sh.GlobalID)
						}
						elem, err := posting.Decrypt([]posting.EncryptedShare{sh, other}, xs, 2)
						if err != nil {
							t.Fatal(err)
						}
						if elem.DocID != 1 {
							t.Fatalf("servers %v: element %d decodes to doc %d (diverged shares)",
								pair, sh.GlobalID, elem.DocID)
						}
					}
				}
			}
		})
	}
}

// TestExactlyOnceUnderDuplicatedDelivery runs a full document lifecycle
// with every Apply delivered twice: final state and stats must be as if
// each mutation had been delivered once.
func TestExactlyOnceUnderDuplicatedDelivery(t *testing.T) {
	for _, eng := range storeEngines {
		t.Run(eng.name, func(t *testing.T) {
			tc := newEngineCluster(t, 3, corpusTerms, eng.shards)
			tc.groups.Add("alice", 1)
			tok := tc.svc.Issue("alice")

			apis := make([]transport.API, len(tc.apis))
			for i := range tc.apis {
				apis[i] = duplicatingAPI{tc.apis[i]}
			}
			p, err := New(Config{
				Name: "dup", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
				Rand: rand.New(rand.NewSource(31)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.IndexDocument(tok, Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
				t.Fatal(err)
			}
			if err := p.UpdateDocument(tok, Document{ID: 1, Content: "martha layoff", Group: 1}); err != nil {
				t.Fatal(err)
			}
			if err := p.IndexDocument(tok, Document{ID: 2, Content: "budget", Group: 1}); err != nil {
				t.Fatal(err)
			}
			if err := p.DeleteDocument(tok, 2); err != nil {
				t.Fatal(err)
			}

			expected := gidsOf(t, p, 1)
			assertExactlyExpected(t, tc, expected)
			for i, s := range tc.servers {
				stats := s.StatsSnapshot()
				// 2 (index) + 1 (update insert) + 1 (doc 2) = 4 inserts;
				// 1 (update delete) + 1 (doc 2 delete) = 2 deletes —
				// counted once despite double delivery.
				if stats.Inserts != 4 || stats.Deletes != 2 {
					t.Errorf("server %d stats = %+v, want 4 inserts / 2 deletes", i, stats)
				}
			}
		})
	}
}

// TestUpdatePayloadErrorLeavesIndexUntouched pins the validation order:
// a failure while building the update's insert payload must return
// before anything — including the delete stage — reaches a server.
func TestUpdatePayloadErrorLeavesIndexUntouched(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	g := &gatedReader{inner: rand.New(rand.NewSource(41))}
	p, err := New(Config{
		Name: "gated", Servers: tc.apis, K: 2, Table: tc.table, Vocab: tc.voc, Rand: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := Document{ID: 1, Content: "martha imclone", Group: 1}
	if err := p.IndexDocument(tok, v1); err != nil {
		t.Fatal(err)
	}
	before := gidsOf(t, p, 1)
	stats := tc.servers[0].StatsSnapshot()

	g.fail = true // entropy source dies before the update
	err = p.UpdateDocument(tok, Document{ID: 1, Content: "martha layoff", Group: 1})
	if err == nil {
		t.Fatal("update must surface the payload-construction failure")
	}
	if got := p.PendingOps(); got != 0 {
		t.Fatalf("a never-sent op must not linger, PendingOps = %d", got)
	}
	if tc.servers[0].StatsSnapshot() != stats {
		t.Error("payload failure reached the servers")
	}
	assertExactlyExpected(t, tc, before)
	if doc, _ := p.Document(1); doc.Content != v1.Content {
		t.Errorf("local content %q, want untouched v1", doc.Content)
	}

	// The same update succeeds once entropy is back.
	g.fail = false
	if err := p.UpdateDocument(tok, Document{ID: 1, Content: "martha layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	assertExactlyExpected(t, tc, gidsOf(t, p, 1))
}

// gatedReader forwards to inner until fail is set, then refuses.
type gatedReader struct {
	inner *rand.Rand
	fail  bool
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.fail {
		return 0, errors.New("entropy exhausted")
	}
	return g.inner.Read(p)
}

// TestBatchElementFreeDocIsJournaled: a batch flushed again after a
// failure with only an element-free document added (empty content
// stages nothing) must still persist that document's post-state, or it
// vanishes on the next restart despite Flush reporting success.
func TestBatchElementFreeDocIsJournaled(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	jpath := filepath.Join(t.TempDir(), "site.journal")

	flaky := &failStageOnce{API: tc.apis[1], stage: transport.StageInsert}
	apis := []transport.API{tc.apis[0], flaky, tc.apis[2]}
	cfg := Config{
		Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
		Rand: rand.New(rand.NewSource(61)), JournalPath: jpath,
	}
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := p1.NewBatch()
	if err := b.Add(Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err == nil {
		t.Fatal("first flush must surface the injected outage")
	}
	if err := b.Add(Document{ID: 2, Name: "empty", Content: "", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Rand = rand.New(rand.NewSource(62))
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if doc, ok := p2.Document(2); !ok || doc.Name != "empty" {
		t.Fatalf("element-free batch document lost across restart: %+v, %v", doc, ok)
	}
	if _, ok := p2.Document(1); !ok {
		t.Fatal("first batch document lost across restart")
	}
}

// TestBatchRetryAfterDocMutated pins a bug found by the model checker
// (internal/sim, seed 753 shrunk to this sequence): a batch's flush
// fails, the batched document is then mutated directly (which drains
// and completes the batch's journaled operation before applying the
// update), and the same batch object is flushed again with another
// document staged. The retry's local commit used to span the already
// committed prefix of the batch, resurrecting the document's stale
// batch-era content and refs over the newer update.
func TestBatchRetryAfterDocMutated(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")

	flaky := &failStageOnce{API: tc.apis[1], stage: transport.StageInsert}
	apis := []transport.API{tc.apis[0], flaky, tc.apis[2]}
	p, err := New(Config{
		Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
		Rand: rand.New(rand.NewSource(91)),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := p.NewBatch()
	if err := b.Add(Document{ID: 9, Content: "martha imclone layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err == nil {
		t.Fatal("first flush must surface the injected outage")
	}
	// Mutating the document drains the batch's pending operation, then
	// applies the update on top of it.
	if err := p.IndexDocument(tok, Document{ID: 9, Content: "martha budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	// The batch retry with a fresh document must not touch document 9.
	if err := b.Add(Document{ID: 10, Content: "merger", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err != nil {
		t.Fatalf("retried flush: %v", err)
	}

	if doc, _ := p.Document(9); doc.Content != "martha budget" {
		t.Fatalf("doc 9 content %q: batch retry resurrected stale state", doc.Content)
	}
	if _, ok := p.Document(10); !ok {
		t.Fatal("batched doc 10 lost")
	}
	// Local refs and server state must agree exactly: the stale commit
	// also used to leave refs pointing at deleted elements.
	assertExactlyExpected(t, tc, committedGIDs(p))
}

// committedGIDs is every element the peer tracks, labelled by document.
func committedGIDs(p *Peer) map[posting.GlobalID]string {
	out := make(map[posting.GlobalID]string)
	for gid, doc := range p.ElementGIDs() {
		out[gid] = fmt.Sprintf("doc%d", doc)
	}
	return out
}

// TestBatchRewritesDocumentOnce: a batch diffs its documents against
// the committed refs like UpdateDocument, and the last Add of an ID
// wins. Re-adding a hosted document, or adding one ID twice, used to
// stage every version under fresh IDs and forget the old elements: the
// servers held 5 elements for the peer's 2, and 3 survived the delete,
// still decrypting to the document.
func TestBatchRewritesDocumentOnce(t *testing.T) {
	first := Document{ID: 1, Content: "martha imclone layoff", Group: 1}
	cases := []struct {
		name  string
		stage func(p *Peer, b *Batch, tok auth.Token) error
	}{
		{"hosted", func(p *Peer, _ *Batch, tok auth.Token) error { return p.IndexDocument(tok, first) }},
		{"added twice", func(_ *Peer, b *Batch, _ auth.Token) error { return b.Add(first) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newCluster(t, 3, corpusTerms)
			tc.groups.Add("alice", 1)
			tok := tc.svc.Issue("alice")
			p, err := New(Config{
				Name: "site", Servers: tc.apis, K: 2, Table: tc.table, Vocab: tc.voc,
				Rand: rand.New(rand.NewSource(71)),
			})
			if err != nil {
				t.Fatal(err)
			}
			b := p.NewBatch()
			if err := c.stage(p, b, tok); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(Document{ID: 1, Content: "merger budget", Group: 1}); err != nil {
				t.Fatal(err)
			}
			if err := b.Flush(tok); err != nil {
				t.Fatal(err)
			}
			if doc, _ := p.Document(1); doc.Content != "merger budget" {
				t.Fatalf("doc 1 content %q, want the batch's version", doc.Content)
			}
			expected := committedGIDs(p)
			if len(expected) != 2 {
				t.Fatalf("peer tracks %d elements, want 2", len(expected))
			}
			assertExactlyExpected(t, tc, expected)

			if err := p.DeleteDocument(tok, 1); err != nil {
				t.Fatal(err)
			}
			for i, s := range tc.servers {
				if got := s.Store().TotalElements(); got != 0 {
					t.Errorf("server %d holds %d elements after the delete, want 0", i, got)
				}
			}
		})
	}
}

// TestJournalRestoresLocalState exercises the journal as the peer's
// local persistence: documents and their refs (the local index) survive
// a restart, including deletions and compaction.
func TestJournalRestoresLocalState(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	jpath := filepath.Join(t.TempDir(), "site.journal")

	cfg := Config{
		Name: "site", Servers: tc.apis, K: 2, Table: tc.table, Vocab: tc.voc,
		Rand: rand.New(rand.NewSource(51)), JournalPath: jpath,
	}
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.IndexDocument(tok, Document{ID: 1, Name: "a", Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p1.IndexDocument(tok, Document{ID: 2, Name: "b", Content: "budget merger", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p1.UpdateDocument(tok, Document{ID: 1, Name: "a", Content: "martha layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p1.DeleteDocument(tok, 2); err != nil {
		t.Fatal(err)
	}
	wantRefs := gidsOf(t, p1, 1)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() *Peer {
		t.Helper()
		cfg.Rand = rand.New(rand.NewSource(52))
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(p *Peer) {
		t.Helper()
		if p.NumDocs() != 1 {
			t.Fatalf("NumDocs = %d, want 1", p.NumDocs())
		}
		doc, ok := p.Document(1)
		if !ok || doc.Content != "martha layoff" || doc.Name != "a" {
			t.Fatalf("doc 1 restored as %+v", doc)
		}
		if got := gidsOf(t, p, 1); len(got) != len(wantRefs) {
			t.Fatalf("refs restored as %v, want %v", got, wantRefs)
		} else {
			for gid, term := range wantRefs {
				if got[gid] != term {
					t.Fatalf("ref %d = %q, want %q", gid, got[gid], term)
				}
			}
		}
		if refDocs(p, "layoff") != 1 || refDocs(p, "budget") != 0 {
			t.Error("refs not restored")
		}
		if p.PendingOps() != 0 {
			t.Errorf("PendingOps = %d after clean history", p.PendingOps())
		}
	}

	p2 := reopen()
	check(p2)
	// Updating a restored document must still send only the diff.
	before := tc.servers[0].StatsSnapshot()
	if err := p2.UpdateDocument(tok, Document{ID: 1, Name: "a", Content: "martha quarterly", Group: 1}); err != nil {
		t.Fatal(err)
	}
	after := tc.servers[0].StatsSnapshot()
	if ins := after.Inserts - before.Inserts; ins != 1 {
		t.Errorf("diff update inserted %d, want 1", ins)
	}
	if del := after.Deletes - before.Deletes; del != 1 {
		t.Errorf("diff update deleted %d, want 1", del)
	}
	wantRefs = gidsOf(t, p2, 1)

	// Compaction keeps the state and shrinks the journal.
	if err := p2.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3 := reopen()
	defer p3.Close()
	if doc, _ := p3.Document(1); doc.Content != "martha quarterly" {
		t.Fatalf("post-compaction content %q", doc.Content)
	}
	if got := gidsOf(t, p3, 1); len(got) != len(wantRefs) {
		t.Fatalf("post-compaction refs %v, want %v", got, wantRefs)
	}
}
