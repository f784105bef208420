package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/shamir"
	"zerber/internal/transport"
)

// tamperingAPI wraps a server and rewrites every share slice it returns,
// whole lists and block pages alike. rewrite returns a copy, so each
// answer is the caller's alone, as transport.API requires, and the fake
// gives the slice it wrapped back to posting's pool.
type tamperingAPI struct {
	transport.API
	rewrite func([]posting.EncryptedShare) []posting.EncryptedShare
}

func (a tamperingAPI) GetPostingLists(ctx context.Context, tok auth.Token, lids []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	out, err := a.API.GetPostingLists(ctx, tok, lids)
	for lid, shares := range out {
		out[lid] = a.rewrite(shares)
		posting.PutShares(shares)
	}
	return out, err
}

func (a tamperingAPI) GetPostingBlocks(ctx context.Context, tok auth.Token, lid merging.ListID, from, n int) (transport.BlockPage, error) {
	page, err := a.API.GetPostingBlocks(ctx, tok, lid, from, n)
	shares := page.Shares
	page.Shares = a.rewrite(shares)
	posting.PutShares(shares)
	return page, err
}

// redeliver returns a copy of its shares with the first one twice, the
// second copy last.
func redeliver(shares []posting.EncryptedShare) []posting.EncryptedShare {
	if len(shares) == 0 {
		return nil
	}
	out := posting.GetShares(len(shares) + 1)
	copy(out, shares)
	out[len(shares)] = shares[0]
	return out
}

// withhold returns a copy of its shares without the first.
func withhold(shares []posting.EncryptedShare) []posting.EncryptedShare {
	if len(shares) == 0 {
		return nil
	}
	out := posting.GetShares(len(shares) - 1)
	copy(out, shares[1:])
	return out
}

// repeatFirst returns a copy of its shares with the first one twice, at
// positions 0 and 1.
func repeatFirst(shares []posting.EncryptedShare) []posting.EncryptedShare {
	if len(shares) == 0 {
		return nil
	}
	out := posting.GetShares(len(shares) + 1)
	out[0] = shares[0]
	copy(out[1:], shares)
	return out
}

// shuffle returns a rewrite that copies its shares in a random order
// other than the one given, when there is one, and counts the lists it
// reordered.
func shuffle(reordered *atomic.Int64) func([]posting.EncryptedShare) []posting.EncryptedShare {
	return func(shares []posting.EncryptedShare) []posting.EncryptedShare {
		out := posting.GetShares(len(shares))
		copy(out, shares)
		rand.New(rand.NewPCG(uint64(len(shares)), 7)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		if slices.Equal(out, shares) {
			slices.Reverse(out)
		}
		if !slices.Equal(out, shares) {
			reordered.Add(1)
		}
		return out
	}
}

func hostileEnv(t *testing.T) (*env, auth.Token) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha martha imclone", Group: 1},
		peer.Document{ID: 2, Content: "martha layoff", Group: 1},
		peer.Document{ID: 3, Content: "imclone budget", Group: 1},
	)
	return e, alice
}

// TestRedeliveredShareFailsExactRetrieval pins the one rule for a server
// that returns a global ID twice in a list: plain and verified retrieval
// fail the query with shamir.ErrDuplicateX naming the element, the list
// and the server, wherever the hostile server sits among the responders.
func TestRedeliveredShareFailsExactRetrieval(t *testing.T) {
	e, alice := hostileEnv(t)
	for _, verified := range []bool{false, true} {
		for hostile := 0; hostile < 3; hostile++ {
			if !verified && hostile == 2 {
				continue // Fanout=1 never reaches the third server
			}
			apis := append([]transport.API{}, e.apis...)
			apis[hostile] = tamperingAPI{API: apis[hostile], rewrite: redeliver}
			c, err := client.New(apis, 2, e.table, e.voc)
			if err != nil {
				t.Fatal(err)
			}
			c.SetTuning(client.Tuning{Fanout: 1}) // responders are servers 0..need-1
			if verified {
				if err := c.EnableVerification(); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err = c.Retrieve(alice, []string{"martha"})
			if !errors.Is(err, shamir.ErrDuplicateX) {
				t.Fatalf("verified=%v hostile=%d: got %v, want an error wrapping ErrDuplicateX", verified, hostile, err)
			}
			for _, want := range []string{
				"element ",
				fmt.Sprintf("list %d", e.table.ListOf("martha")),
				fmt.Sprintf("server %d (x=%d)", hostile, e.apis[hostile].XCoord()),
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("verified=%v hostile=%d: error %q does not name %q", verified, hostile, err, want)
				}
			}
		}
	}
}

// TestRedeliveredShareDroppedByTopK: overlapping block windows redeliver
// legitimately, so the top-k path keeps the first copy and drops the
// rest; results and element counts are those of a clean cluster.
func TestRedeliveredShareDroppedByTopK(t *testing.T) {
	e, alice := hostileEnv(t)
	clean := e.client(t)
	clean.SetTuning(client.Tuning{Fanout: 1, BlockSize: 2})
	want, wantStats, err := clean.SearchTopK(alice, []string{"martha", "imclone"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for hostile := 0; hostile < 2; hostile++ {
		apis := append([]transport.API{}, e.apis...)
		apis[hostile] = tamperingAPI{API: apis[hostile], rewrite: redeliver}
		c, err := client.New(apis, 2, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		c.SetTuning(client.Tuning{Fanout: 1, BlockSize: 2})
		got, stats, err := c.SearchTopK(alice, []string{"martha", "imclone"}, 10)
		if err != nil {
			t.Fatalf("hostile=%d: %v", hostile, err)
		}
		if !sameScored(got, want) {
			t.Errorf("hostile=%d: top-k = %v, want %v", hostile, got, want)
		}
		if stats.ElementsFetched != wantStats.ElementsFetched {
			t.Errorf("hostile=%d: decrypted %d elements, clean cluster %d", hostile, stats.ElementsFetched, wantStats.ElementsFetched)
		}
	}
}

// TestUnderReplicatedElementSkipped: an element fewer than k responders
// hold is skipped on every path — never decrypted from too few shares,
// never an error.
func TestUnderReplicatedElementSkipped(t *testing.T) {
	e, alice := hostileEnv(t)
	clean := e.client(t)
	clean.SetTuning(client.Tuning{Fanout: 1})
	_, cleanStats, err := clean.Retrieve(alice, []string{"martha"})
	if err != nil {
		t.Fatal(err)
	}
	apis := append([]transport.API{}, e.apis...)
	apis[1] = tamperingAPI{API: apis[1], rewrite: withhold}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTuning(client.Tuning{Fanout: 1})
	_, stats, err := c.Retrieve(alice, []string{"martha"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ElementsFetched != cleanStats.ElementsFetched-1 {
		t.Errorf("plain: decrypted %d elements, want %d (one withheld)", stats.ElementsFetched, cleanStats.ElementsFetched-1)
	}
	_, kStats, err := c.SearchTopK(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if kStats.ElementsFetched != cleanStats.ElementsFetched-1 {
		t.Errorf("top-k: decrypted %d elements, want %d (one withheld)", kStats.ElementsFetched, cleanStats.ElementsFetched-1)
	}
}

// TestVerifiedRetrievalDecryptsKOfKPlusOne: under verification an
// element only k of the k+1 responders hold is still decrypted — from
// the basis of exactly the servers that hold it, whichever one is
// missing — and is not counted as cross-checked.
func TestVerifiedRetrievalDecryptsKOfKPlusOne(t *testing.T) {
	e, alice := hostileEnv(t)
	plain := e.client(t)
	want, wantStats, err := plain.Retrieve(alice, []string{"martha", "imclone"})
	if err != nil {
		t.Fatal(err)
	}
	for missing := 0; missing < 3; missing++ {
		apis := append([]transport.API{}, e.apis...)
		apis[missing] = tamperingAPI{API: apis[missing], rewrite: withhold}
		c, err := client.New(apis, 2, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnableVerification(); err != nil {
			t.Fatal(err)
		}
		got, stats, err := c.Retrieve(alice, []string{"martha", "imclone"})
		if err != nil {
			t.Fatalf("missing=%d: %v", missing, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("missing=%d: postings %v, want %v", missing, got, want)
		}
		if stats.ElementsFetched != wantStats.ElementsFetched {
			t.Errorf("missing=%d: decrypted %d elements, want %d", missing, stats.ElementsFetched, wantStats.ElementsFetched)
		}
		if held := stats.ElementsFetched - stats.ElementsVerified; held != stats.ListsRequested {
			t.Errorf("missing=%d: %d elements left unverified, want one per list (%d)", missing, held, stats.ListsRequested)
		}
	}
}

// TestRepeatedShareOnEveryResponder: when every responder delivers one
// element twice, at the same positions, their responses still agree
// position by position, but they are not strictly increasing in the
// canonical order, so the lists go through the join and its rules hold:
// exact retrieval fails with shamir.ErrDuplicateX, and top-k, on either
// plan, keeps the first copy and answers as a clean cluster does.
func TestRepeatedShareOnEveryResponder(t *testing.T) {
	e, alice := hostileEnv(t)
	clean := e.client(t)
	clean.SetTuning(client.Tuning{Fanout: 1})
	apis := append([]transport.API{}, e.apis...)
	for i := range apis {
		apis[i] = tamperingAPI{API: apis[i], rewrite: repeatFirst}
	}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTuning(client.Tuning{Fanout: 1})
	if _, _, err := c.Retrieve(alice, []string{"martha"}); !errors.Is(err, shamir.ErrDuplicateX) {
		t.Errorf("exact retrieval: got %v, want an error wrapping ErrDuplicateX", err)
	}
	for _, query := range [][]string{{"martha"}, {"martha", "imclone"}} {
		want, wantStats, err := clean.SearchTopK(alice, query, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := c.SearchTopK(alice, query, 10)
		if err != nil {
			t.Fatalf("top-k %v: %v", query, err)
		}
		if !sameScored(got, want) {
			t.Errorf("top-k %v = %v, clean cluster %v", query, got, want)
		}
		if stats.ElementsFetched != wantStats.ElementsFetched {
			t.Errorf("top-k %v: decrypted %d elements, clean cluster %d", query, stats.ElementsFetched, wantStats.ElementsFetched)
		}
	}
}

// TestShuffledResponseJoined: a responder that returns its whole set out
// of the canonical order is not aligned with the others, and the join
// gives exactly the clean cluster's answers and Stats, on exact
// retrieval and on the whole-list plan of top-k.
func TestShuffledResponseJoined(t *testing.T) {
	e, alice := hostileEnv(t)
	query := []string{"martha", "imclone", "layoff", "budget"}
	type answer struct {
		retrieved map[string][]ranking.Posting
		searched  []ranking.ScoredDoc
		topk      []ranking.ScoredDoc
		stats     [3]client.Stats
	}
	ask := func(apis []transport.API) answer {
		c, err := client.New(apis, 2, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		c.SetTuning(client.Tuning{Fanout: 1})
		var a answer
		var errs [3]error
		a.retrieved, a.stats[0], errs[0] = c.Retrieve(alice, query)
		a.searched, a.stats[1], errs[1] = c.Search(alice, query, 10)
		a.topk, a.stats[2], errs[2] = c.SearchTopK(alice, query, 10)
		if err := errors.Join(errs[:]...); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := ask(e.apis)
	for hostile := 0; hostile < 2; hostile++ {
		apis := append([]transport.API{}, e.apis...)
		var reordered atomic.Int64
		apis[hostile] = tamperingAPI{API: apis[hostile], rewrite: shuffle(&reordered)}
		got := ask(apis)
		if reordered.Load() == 0 {
			t.Fatalf("hostile=%d: no list was long enough to reorder", hostile)
		}
		if fmt.Sprint(got.retrieved, got.searched, got.topk) != fmt.Sprint(want.retrieved, want.searched, want.topk) {
			t.Errorf("hostile=%d: answers %v %v %v, clean cluster %v %v %v", hostile,
				got.retrieved, got.searched, got.topk, want.retrieved, want.searched, want.topk)
		}
		if got.stats != want.stats {
			t.Errorf("hostile=%d: stats %+v, clean cluster %+v", hostile, got.stats, want.stats)
		}
	}
}
