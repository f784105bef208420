package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// TestReconcileRestart indexes a directory, edits one file and deletes
// another, then reopens the peer on the same journal and reconciles the
// directory again: the restart sends only the edit and the deletions,
// and every server ends up holding exactly the elements the peer tracks.
func TestReconcileRestart(t *testing.T) {
	terms := []string{"martha", "imclone", "layoff", "merger", "budget", "meeting", "quarterly"}
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
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	tok := svc.Issue("alice")
	var servers []*server.Server
	var apis []transport.API
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{
			Name: fmt.Sprintf("ix%d", i), X: field.Element(i + 1), Auth: svc, Groups: groups,
		})
		servers = append(servers, s)
		apis = append(apis, s)
	}

	dir := t.TempDir()
	docs := filepath.Join(dir, "docs")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(docs, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func() *peer.Peer {
		t.Helper()
		p, err := peer.New(peer.Config{
			Name: "site", Servers: apis, K: 2, Table: table, Vocab: vocab.NewFromTerms(terms),
			JournalPath: filepath.Join(dir, "site.journal"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// holdsExactly fails unless every server stores exactly the
	// elements p tracks.
	holdsExactly := func(p *peer.Peer) {
		t.Helper()
		want := p.ElementGIDs()
		for i, s := range servers {
			got := make(map[posting.GlobalID]bool)
			for lid := range s.Store().ListLengths() {
				for _, sh := range s.Store().Scan(lid, nil) {
					if _, ok := want[sh.GlobalID]; !ok {
						t.Errorf("server %d: orphaned element %d", i, sh.GlobalID)
					}
					got[sh.GlobalID] = true
				}
			}
			if len(got) != len(want) {
				t.Errorf("server %d holds %d of the peer's %d elements", i, len(got), len(want))
			}
		}
	}

	write("a.txt", "martha imclone layoff")
	write("b.txt", "merger budget meeting")
	write("c.md", "quarterly budget")
	p := open()
	names, elements, removed, err := reconcile(p, tok, docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || elements != 8 || removed != 0 || p.NumDocs() != 3 {
		t.Fatalf("first run: %v, %d elements, %d removed, %d hosted", names, elements, removed, p.NumDocs())
	}
	holdsExactly(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	write("a.txt", "martha layoff budget")
	if err := os.Remove(filepath.Join(docs, "c.md")); err != nil {
		t.Fatal(err)
	}
	before := servers[0].StatsSnapshot()
	p = open()
	defer p.Close()
	names, _, removed, err = reconcile(p, tok, docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || removed != 1 || p.NumDocs() != 2 {
		t.Fatalf("restart: %v, %d removed, %d hosted", names, removed, p.NumDocs())
	}
	if doc, _ := p.Document(1); doc.Content != "martha layoff budget" {
		t.Fatalf("doc 1 content %q after the restart, want the edit", doc.Content)
	}
	// The edit swaps imclone for budget; c.md's two elements go.
	after := servers[0].StatsSnapshot()
	if ins, del := after.Inserts-before.Inserts, after.Deletes-before.Deletes; ins != 1 || del != 3 {
		t.Errorf("restart inserted %d and deleted %d elements, want 1 and 3", ins, del)
	}
	holdsExactly(p)
}
