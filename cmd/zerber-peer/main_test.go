package main

import (
	"fmt"
	"math"
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

// TestChooseTable checks the table the operator's r yields: DFM and UDM
// get the most lists that meet r (one more list misses it), BFM is built
// once from r and checked, and an r no table can have is refused.
func TestChooseTable(t *testing.T) {
	dfs := make(map[string]int)
	for i := 0; i < 2000; i++ {
		dfs[fmt.Sprintf("t%04d", i)] = 1 + 20000/(i+1) // Zipf
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	const r = 40
	for _, h := range []merging.Heuristic{merging.DFM, merging.UDM} {
		table, err := chooseTable(dist, h, r)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if table.Heuristic() != h || !confidential.SatisfiesR(table.MinMass(), r) {
			t.Fatalf("%s: chose a %s table with r=%.4g, want one meeting r=%d", h, table.Heuristic(), table.RValue(), r)
		}
		// M must sit inside the searched range, or "one more list
		// misses r" would hold for want of candidates.
		if table.M() <= 1 || table.M() >= r {
			t.Fatalf("%s: M=%d on a %d-term Zipf corpus, want 1 < M < %d", h, table.M(), dist.Len(), r)
		}
		next, err := merging.Build(dist, merging.Options{Heuristic: h, M: table.M() + 1, R: r})
		if err != nil {
			t.Fatal(err)
		}
		if confidential.SatisfiesR(next.MinMass(), r) {
			t.Errorf("%s: chose M=%d, but M=%d also meets r=%d (r=%.4g)", h, table.M(), next.M(), r, next.RValue())
		}
	}

	table, err := chooseTable(dist, merging.BFM, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := merging.Build(dist, merging.Options{Heuristic: merging.BFM, R: r})
	if err != nil {
		t.Fatal(err)
	}
	if table.M() != want.M() || table.RValue() != want.RValue() || !confidential.SatisfiesR(table.MinMass(), r) {
		t.Errorf("BFM: chose M=%d r=%.4g, want the one build from r: M=%d r=%.4g", table.M(), table.RValue(), want.M(), want.RValue())
	}

	for _, bad := range []float64{0.5, 0, -3, math.NaN(), math.Inf(1)} {
		if table, err := chooseTable(dist, merging.DFM, bad); err == nil {
			t.Errorf("r=%g: built a table with r=%.4g, want a refusal", bad, table.RValue())
		}
	}
	if table, err := chooseTable(dist, merging.DFM, 1); err != nil || table.M() != 1 {
		t.Errorf("r=1: %v, want the one-list table", err)
	}
}
