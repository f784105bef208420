package peer

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"zerber/internal/transport"
)

// TestRecoverRacesFreshMutations hammers the one interleaving recovery
// was never tested under: Recover draining a journaled in-flight
// operation while other goroutines push fresh mutations through the
// same peer and journal (plus concurrent readers). Run under
// `make race`; the assertions then check the outcome, the race detector
// checks the journey. Sequential recovery coverage lives in
// recover_test.go.
func TestRecoverRacesFreshMutations(t *testing.T) {
	for _, eng := range storeEngines {
		t.Run(eng.name, func(t *testing.T) {
			tc := newEngineCluster(t, 3, corpusTerms, eng.shards)
			tc.groups.Add("alice", 1)
			tok := tc.svc.Issue("alice")
			jpath := filepath.Join(t.TempDir(), "site.journal")

			// Fail the first delete-stage delivery on server 1 so an
			// UpdateDocument is left pending in the journal — the state
			// Recover exists to converge.
			var failed atomic.Bool
			flaky := transport.WithHooks(tc.apis[1], transport.Hooks{
				Before: func(c transport.Call) error {
					if c.Method == transport.MethodApply && c.Op.Stage == transport.StageDelete &&
						failed.CompareAndSwap(false, true) {
						return errors.New("injected outage")
					}
					return nil
				},
			})
			apis := []transport.API{tc.apis[0], flaky, tc.apis[2]}
			p, err := New(Config{
				Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
				Rand: rand.New(rand.NewSource(71)), JournalPath: jpath,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.IndexDocument(tok, Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
				t.Fatal(err)
			}
			if err := p.UpdateDocument(tok, Document{ID: 1, Content: "martha layoff", Group: 1}); err == nil {
				t.Fatal("update must surface the injected outage")
			}
			if got := p.PendingOps(); got != 1 {
				t.Fatalf("PendingOps = %d, want 1 pending update", got)
			}

			// Recover races IndexDocument on fresh IDs, DeleteDocument
			// on some of them, and lock-free-looking readers.
			const writers, docsPerWriter = 3, 4
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for d := 0; d < docsPerWriter; d++ {
						id := uint32(10 + w*docsPerWriter + d)
						doc := Document{
							ID:      id,
							Content: fmt.Sprintf("budget merger %s", corpusTerms[(w+d)%len(corpusTerms)]),
							Group:   1,
						}
						if err := p.IndexDocument(tok, doc); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						if d%2 == 1 {
							if err := p.DeleteDocument(tok, id); err != nil {
								t.Errorf("writer %d delete: %v", w, err)
								return
							}
						}
					}
				}(w)
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						if _, err := p.Recover(tok); err != nil {
							t.Errorf("Recover: %v", err)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p.Document(1)
					p.ElementGIDs()
					p.PendingOpIDs()
					p.NumDocs()
				}
			}()
			wg.Wait()

			if _, err := p.Recover(tok); err != nil {
				t.Fatalf("final Recover: %v", err)
			}
			if got := p.PendingOps(); got != 0 {
				t.Fatalf("PendingOps after convergence = %d", got)
			}
			// Every server must hold exactly the committed element set —
			// no orphans from any interleaving of recovery and mutations.
			expected := p.ElementGIDs()
			if len(expected) == 0 {
				t.Fatal("expected a non-empty committed element set")
			}
			for i, s := range tc.servers {
				seen := make(map[uint64]bool)
				for lid := range s.Store().ListLengths() {
					for _, sh := range s.Store().Scan(lid, nil) {
						if _, want := expected[sh.GlobalID]; !want {
							t.Errorf("server %d: orphaned element %d", i, sh.GlobalID)
						}
						if seen[uint64(sh.GlobalID)] {
							t.Errorf("server %d: element %d stored twice", i, sh.GlobalID)
						}
						seen[uint64(sh.GlobalID)] = true
					}
				}
				if len(seen) != len(expected) {
					t.Errorf("server %d holds %d elements, want %d", i, len(seen), len(expected))
				}
			}
			if doc, _ := p.Document(1); doc.Content != "martha layoff" {
				t.Errorf("doc 1 content %q, want the recovered update", doc.Content)
			}
		})
	}
}
