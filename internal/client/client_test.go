package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/invindex"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/server"
	"zerber/internal/textproc"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

type env struct {
	servers []*server.Server
	apis    []transport.API
	svc     *auth.Service
	groups  *auth.GroupTable
	table   *merging.Table
	voc     *vocab.Vocabulary
	peer    *peer.Peer
}

var terms = []string{"martha", "imclone", "layoff", "merger", "quarterly", "budget", "chemical", "process"}

// newEnv builds a 3-server cluster with a single-list merging table
// variant configurable by M, one peer, and the groups alice:1, bob:2.
func newEnv(t testing.TB, m int) *env {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	groups.Add("bob", 2)

	dfs := make(map[string]int)
	for i, term := range terms {
		dfs[term] = len(terms) - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: m})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(terms)

	e := &env{svc: svc, groups: groups, table: table, voc: voc}
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{
			Name: fmt.Sprintf("ix%d", i), X: field.Element(10 * (i + 1)),
			Auth: svc, Groups: groups,
		})
		e.servers = append(e.servers, s)
		e.apis = append(e.apis, s)
	}
	p, err := peer.New(peer.Config{
		Name: "site1", Servers: e.apis, K: 2, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.peer = p
	return e
}

func (e *env) index(t *testing.T, tok auth.Token, docs ...peer.Document) {
	t.Helper()
	b := e.peer.NewBatch()
	for _, d := range docs {
		if err := b.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(tok); err != nil {
		t.Fatal(err)
	}
}

func (e *env) client(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.New(e.apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wireClient is a client of the same servers that reaches each over
// the binary wire on loopback.
func (e *env) wireClient(t *testing.T) *client.Client {
	t.Helper()
	apis := make([]transport.API, len(e.servers))
	for i, s := range e.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.ServeBinary(ln, s)
		conn, err := transport.DialBinary(ln.Addr().String(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close(); srv.Close() })
		apis[i] = conn
	}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSearchEndToEnd(t *testing.T) {
	e := newEnv(t, 2) // heavy merging -> false positives exercised
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone martha martha", Group: 1},
		peer.Document{ID: 2, Content: "imclone layoff", Group: 1},
		peer.Document{ID: 3, Content: "budget quarterly merger", Group: 1},
	)
	c := e.client(t)
	res, stats, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("Search(martha) = %v, want doc 1 only", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("queried %d servers, want k=2", stats.ServersQueried)
	}
	// With M=2 merged lists over 8 terms, martha's list carries other
	// terms' elements -> false positives must have been filtered.
	if stats.FalsePositives == 0 {
		t.Error("expected false positives under heavy merging")
	}
}

func TestSearchMultiTermRanking(t *testing.T) {
	e := newEnv(t, 4)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone", Group: 1},          // both terms
		peer.Document{ID: 2, Content: "martha budget quarterly", Group: 1}, // one term
		peer.Document{ID: 3, Content: "imclone imclone imclone", Group: 1}, // one term, high tf
		peer.Document{ID: 4, Content: "merger quarterly budget", Group: 1}, // no term
	)
	c := e.client(t)
	res, _, err := c.Search(alice, []string{"martha", "imclone"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].DocID != 1 && res[0].DocID != 3 {
		t.Errorf("top result = doc %d; want a strong match (doc 1 or 3)", res[0].DocID)
	}
	for _, r := range res {
		if r.DocID == 4 {
			t.Error("non-matching document in results")
		}
	}
}

func TestSearchRespectsAccessControl(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	bob := e.svc.Issue("bob")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha imclone", Group: 1})
	e.index(t, bob, peer.Document{ID: 2, Content: "martha layoff", Group: 2})

	c := e.client(t)
	res, _, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("alice sees %v, want only doc 1", res)
	}
	res, _, err = c.Search(bob, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 2 {
		t.Fatalf("bob sees %v, want only doc 2", res)
	}
}

// plainIndex is the plaintext oracle of a peer: an ordinary inverted
// index over the documents it hosts.
func plainIndex(p *peer.Peer) *invindex.Index {
	idx := invindex.New()
	for _, id := range p.DocIDs() {
		doc, _ := p.Document(id)
		idx.Add(id, textproc.TermCounts(doc.Content))
	}
	return idx
}

func TestSearchIdenticalToPlainIndexPlusACL(t *testing.T) {
	// §2: the ideal scheme answers "identical to that of a trusted
	// centralized ordinary inverted index that incorporates an access
	// control list check". Compare Zerber's result set against a plain
	// index over the peer's documents, filtered by group.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	docs := []peer.Document{
		{ID: 1, Content: "martha imclone budget", Group: 1},
		{ID: 2, Content: "martha martha layoff", Group: 1},
		{ID: 3, Content: "imclone process chemical", Group: 1},
	}
	e.index(t, alice, docs...)
	c := e.client(t)
	plain := plainIndex(e.peer)

	for _, q := range [][]string{{"martha"}, {"imclone"}, {"martha", "imclone"}, {"chemical", "budget"}} {
		res, _, err := c.Search(alice, q, 100)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint32]bool)
		for _, r := range res {
			got[r.DocID] = true
		}
		want := make(map[uint32]bool)
		for _, term := range q {
			for _, p := range plain.Lookup(term) {
				want[p.DocID] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %v, want %v", q, got, want)
		}
		for d := range want {
			if !got[d] {
				t.Fatalf("query %v: missing doc %d", q, d)
			}
		}
	}
}

// TestSearchScoresMatchScoreAll holds exact-mode scores end to end, where
// the tests above compare result sets: on a seeded two-group corpus over
// merged lists, Search returns ScoreAll's first k over the user's
// accessible plaintext postings — the same documents, bit-equal scores
// and the same tie order — for queries of 1 to 4 terms and k of 1, 10
// and all.
func TestSearchScoresMatchScoreAll(t *testing.T) {
	groupOf := map[string]auth.GroupID{"alice": 1, "bob": 2}
	for _, m := range []int{1, 3, 8} {
		e, toks := plansEnv(t, m, int64(40+m))
		c := e.client(t)
		plain := plainIndex(e.peer)
		rng := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 20; trial++ {
			query := make([]string, 1+rng.Intn(4))
			for i, ti := range rng.Perm(len(terms))[:len(query)] {
				query[i] = terms[ti]
			}
			for _, who := range []string{"alice", "bob"} {
				lists := make([][]ranking.Posting, len(query))
				for ti, term := range query {
					for _, p := range plain.Lookup(term) {
						if doc, _ := e.peer.Document(p.DocID); doc.Group == groupOf[who] {
							lists[ti] = append(lists[ti], ranking.Posting{DocID: p.DocID, TF: p.TF})
						}
					}
				}
				full := ranking.ScoreAll(lists)
				for _, k := range []int{1, 10, len(full) + 1} {
					got, _, err := c.Search(toks[who], query, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := full[:min(k, len(full))]; !slices.Equal(got, want) {
						t.Fatalf("M=%d %s %v k=%d:\nSearch   %v\nScoreAll %v", m, who, query, k, got, want)
					}
				}
			}
		}
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})
	c := e.client(t)
	res, _, err := c.Search(alice, []string{"hesselhofer"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("unknown term returned %v", res)
	}
}

func TestSearchRareHashRoutedTerm(t *testing.T) {
	// A term absent from the vocabulary still round-trips via hash IDs.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha hesselhofer", Group: 1})
	c := e.client(t)
	res, _, err := c.Search(alice, []string{"hesselhofer"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("rare-term search = %v, want doc 1", res)
	}
}

func TestSearchSurvivesServerFailure(t *testing.T) {
	// With n=3, k=2, one dead server must not break queries.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	apis := []transport.API{failingAPI{x: 7}, e.apis[1], e.apis[2]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results with one dead server: %v", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("ServersQueried = %d", stats.ServersQueried)
	}
}

func TestSearchFailsBelowK(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	apis := []transport.API{failingAPI{x: 7}, failingAPI{x: 8}, e.apis[0]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Search(alice, []string{"martha"}, 10); !errors.Is(err, client.ErrNotEnough) {
		t.Errorf("got %v, want ErrNotEnough", err)
	}
}

func TestClientValidation(t *testing.T) {
	e := newEnv(t, 2)
	if _, err := client.New(e.apis[:1], 2, e.table, e.voc); !errors.Is(err, client.ErrTooFewServers) {
		t.Errorf("too few servers: %v", err)
	}
	dup := []transport.API{e.apis[0], e.apis[0]}
	if _, err := client.New(dup, 2, e.table, e.voc); err == nil {
		t.Error("duplicate x-coordinates must be rejected")
	}
}

func TestEmptyQuery(t *testing.T) {
	e := newEnv(t, 2)
	c := e.client(t)
	res, stats, err := c.Search(e.svc.Issue("alice"), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || stats.ListsRequested != 0 {
		t.Errorf("empty query: res=%v stats=%+v", res, stats)
	}
	res, _, err = c.Search(e.svc.Issue("alice"), []string{"", ""}, 10)
	if err != nil || len(res) != 0 {
		t.Errorf("blank terms: %v, %v", res, err)
	}
}

// failingAPI refuses every call, simulating a dead server.
type failingAPI struct{ x uint64 }

func (f failingAPI) XCoord() field.Element { return field.New(f.x) }
func (f failingAPI) Insert(context.Context, auth.Token, []transport.InsertOp) error {
	return errors.New("down")
}
func (f failingAPI) Delete(context.Context, auth.Token, []transport.DeleteOp) error {
	return errors.New("down")
}
func (f failingAPI) Apply(context.Context, auth.Token, transport.OpID, []transport.InsertOp, []transport.DeleteOp) error {
	return errors.New("down")
}
func (f failingAPI) GetPostingLists(context.Context, auth.Token, []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	return nil, errors.New("down")
}
func (f failingAPI) GetPostingBlocks(context.Context, auth.Token, merging.ListID, int, int) (transport.BlockPage, error) {
	return transport.BlockPage{}, errors.New("down")
}
