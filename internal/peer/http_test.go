package peer_test

import (
	"errors"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// httpEnv wires a peer with one in-memory index server and an HTTP
// snippet service in front of it.
type httpEnv struct {
	svc    *auth.Service
	groups *auth.GroupTable
	peer   *peer.Peer
	ts     *httptest.Server
}

func newHTTPEnv(t *testing.T) *httpEnv {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	groups.Add("bob", 2)

	dfs := map[string]int{"martha": 3, "imclone": 2, "layoff": 1}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())
	srv := server.New(server.Config{Name: "ix", X: field.New(1), Auth: svc, Groups: groups})
	p, err := peer.New(peer.Config{
		Name: "site", Servers: []transport.API{srv}, K: 1, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tok := svc.Issue("alice")
	if err := p.IndexDocument(tok, peer.Document{
		ID: 1, Name: "memo.eml", Group: 1,
		Content: "Martha sold ImClone shares before the layoff.",
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(peer.NewHTTPHandler(p, svc, groups))
	t.Cleanup(ts.Close)
	return &httpEnv{svc: svc, groups: groups, peer: p, ts: ts}
}

func TestSnippetOverHTTP(t *testing.T) {
	e := newHTTPEnv(t)
	c := peer.DialSnippets(e.ts.URL, time.Second)
	resp, err := c.Snippet(e.svc.Issue("alice"), 1, []string{"imclone"}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(resp.Snippet), "imclone") {
		t.Errorf("snippet %q lacks query term", resp.Snippet)
	}
	if resp.Name != "memo.eml" {
		t.Errorf("name = %q", resp.Name)
	}
}

func TestSnippetHTTPAccessControl(t *testing.T) {
	e := newHTTPEnv(t)
	c := peer.DialSnippets(e.ts.URL, time.Second)
	// bob is in group 2, the doc is group 1.
	if _, err := e.peer.Snippet(1, []string{"imclone"}, 80, e.groups.GroupSetOf("bob")); !errors.Is(err, peer.ErrAccessDenied) {
		t.Fatalf("in-process cross-group snippet: %v, want ErrAccessDenied", err)
	}
	if _, err := c.Snippet(e.svc.Issue("bob"), 1, []string{"imclone"}, 80); err == nil {
		t.Fatal("cross-group snippet served over HTTP")
	} else if !strings.Contains(err.Error(), "403") {
		t.Errorf("want 403, got %v", err)
	}
	// Bad token entirely.
	if _, err := c.Snippet("garbage", 1, nil, 0); err == nil {
		t.Fatal("unauthenticated snippet served")
	} else if !strings.Contains(err.Error(), "401") {
		t.Errorf("want 401, got %v", err)
	}
}

func TestSnippetHTTPUnknownDoc(t *testing.T) {
	e := newHTTPEnv(t)
	c := peer.DialSnippets(e.ts.URL, time.Second)
	if _, err := c.Snippet(e.svc.Issue("alice"), 99, nil, 0); err == nil {
		t.Fatal("unknown document served")
	} else if !strings.Contains(err.Error(), "404") {
		t.Errorf("want 404, got %v", err)
	}
}

func TestDocumentFetchOverHTTP(t *testing.T) {
	e := newHTTPEnv(t)
	c := peer.DialSnippets(e.ts.URL, time.Second)
	doc, err := c.Document(e.svc.Issue("alice"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Content, "Martha") || doc.Name != "memo.eml" {
		t.Errorf("document fetch = %+v", doc)
	}
	// Access control on full fetch too.
	if _, err := c.Document(e.svc.Issue("bob"), 1); err == nil {
		t.Fatal("cross-group document served")
	}
	if _, err := c.Document(e.svc.Issue("alice"), 42); err == nil {
		t.Fatal("unknown document fetched")
	}
}
