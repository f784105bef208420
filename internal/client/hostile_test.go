package client_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/shamir"
	"zerber/internal/transport"
)

// tamperingAPI wraps a server and rewrites every share slice it returns,
// whole lists and block pages alike.
type tamperingAPI struct {
	transport.API
	rewrite func([]posting.EncryptedShare) []posting.EncryptedShare
}

func (a tamperingAPI) GetPostingLists(ctx context.Context, tok auth.Token, lids []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	out, err := a.API.GetPostingLists(ctx, tok, lids)
	for lid, shares := range out {
		out[lid] = a.rewrite(shares)
	}
	return out, err
}

func (a tamperingAPI) GetPostingBlocks(ctx context.Context, tok auth.Token, lid merging.ListID, from, n int) (transport.BlockPage, error) {
	page, err := a.API.GetPostingBlocks(ctx, tok, lid, from, n)
	page.Shares = a.rewrite(page.Shares)
	return page, err
}

// redeliver returns its first share twice, the second copy last.
func redeliver(shares []posting.EncryptedShare) []posting.EncryptedShare {
	if len(shares) == 0 {
		return shares
	}
	return append(append([]posting.EncryptedShare{}, shares...), shares[0])
}

// withhold drops its first share.
func withhold(shares []posting.EncryptedShare) []posting.EncryptedShare {
	if len(shares) == 0 {
		return shares
	}
	return shares[1:]
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
