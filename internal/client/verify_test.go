package client_test

import (
	"context"
	"errors"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/transport"
)

// corruptingAPI wraps a server and flips a bit in every returned share,
// modeling a malicious index server tampering with stored data. It
// answers with corrupted copies and gives the slices it wrapped back to
// posting's pool.
type corruptingAPI struct {
	transport.API
}

func (c corruptingAPI) GetPostingLists(ctx context.Context, tok auth.Token, lids []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	out, err := c.API.GetPostingLists(ctx, tok, lids)
	if err != nil {
		return nil, err
	}
	bad := make(map[merging.ListID][]posting.EncryptedShare, len(out))
	for lid, shares := range out {
		bs := posting.GetShares(len(shares))
		for i, sh := range shares {
			sh.Y = field.Add(sh.Y, 1) // subtle corruption
			bs[i] = sh
		}
		bad[lid] = bs
		posting.PutShares(shares)
	}
	return bad, nil
}

func TestVerifiedRetrievalDetectsCorruption(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha imclone", Group: 1})

	// Corrupt server 0. Without verification the client reconstructs
	// garbage silently (wrong decode), or filters it as a false positive.
	apis := []transport.API{corruptingAPI{e.apis[0]}, e.apis[1], e.apis[2]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableVerification(); err != nil {
		t.Fatal(err)
	}
	if !c.VerificationEnabled() {
		t.Fatal("verification flag not set")
	}
	_, _, err = c.Search(alice, []string{"martha"}, 10)
	if !errors.Is(err, client.ErrCorruptShare) {
		t.Fatalf("got %v, want ErrCorruptShare", err)
	}
}

func TestVerifiedRetrievalCleanPath(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone", Group: 1},
		peer.Document{ID: 2, Content: "martha layoff", Group: 1},
	)
	c := e.client(t)
	if err := c.EnableVerification(); err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("verified search = %v", res)
	}
	if stats.ServersQueried != 3 {
		t.Errorf("verified retrieval queried %d servers, want k+1=3", stats.ServersQueried)
	}
	if stats.ElementsVerified == 0 {
		t.Error("no elements were cross-checked")
	}
}

func TestVerifiedRetrievalMatchesPlain(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone budget", Group: 1},
		peer.Document{ID: 2, Content: "imclone merger", Group: 1},
	)
	plain := e.client(t)
	verified := e.client(t)
	if err := verified.EnableVerification(); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]string{{"martha"}, {"imclone", "budget"}} {
		a, _, err := plain.Search(alice, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := verified.Search(alice, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %v: plain %d results, verified %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].DocID != b[i].DocID {
				t.Fatalf("query %v: result %d differs: %d vs %d", q, i, a[i].DocID, b[i].DocID)
			}
		}
	}
}

func TestVerificationNeedsKPlusOneServers(t *testing.T) {
	e := newEnv(t, 2)
	c, err := client.New(e.apis[:2], 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableVerification(); err == nil {
		t.Error("verification with only k servers must be rejected")
	}
}

func TestVerificationSurvivesOneDeadServerOutOfFour(t *testing.T) {
	// k=2, verification needs 3 responses; with 4 servers one may fail.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})
	apis := []transport.API{failingAPI{x: 99}, e.apis[0], e.apis[1], e.apis[2]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableVerification(); err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
}
