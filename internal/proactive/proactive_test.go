package proactive_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/proactive"
	"zerber/internal/server"
	"zerber/internal/shamir"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
	"zerber/internal/vocab"
)

type fixture struct {
	servers []*server.Server
	apis    []transport.API
	svc     *auth.Service
	peer    *peer.Peer
	tok     auth.Token
	table   *merging.Table
	voc     *vocab.Vocabulary
}

func build(t *testing.T) *fixture {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	dfs := map[string]int{"martha": 5, "imclone": 4, "layoff": 3, "merger": 2, "budget": 1}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())

	f := &fixture{svc: svc, tok: svc.Issue("alice"), table: table, voc: voc}
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{
			Name: fmt.Sprintf("ix%d", i), X: field.Element(i + 1), Auth: svc, Groups: groups,
		})
		f.servers = append(f.servers, s)
		f.apis = append(f.apis, transport.NewLocal(s))
	}
	p, err := peer.New(peer.Config{
		Name: "site", Servers: f.apis, K: 2, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.peer = p
	if err := p.IndexDocument(f.tok, peer.Document{
		ID: 1, Content: "martha imclone layoff merger budget", Group: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// decryptAll reconstructs every element from servers a and b.
func decryptAll(t *testing.T, f *fixture, a, b int) map[posting.GlobalID]posting.Element {
	t.Helper()
	out := make(map[posting.GlobalID]posting.Element)
	xs := []field.Element{f.servers[a].XCoord(), f.servers[b].XCoord()}
	for lid := range f.servers[a].Store().ListLengths() {
		byID := make(map[posting.GlobalID]posting.EncryptedShare)
		for _, sh := range f.servers[a].Store().Scan(lid, nil) {
			byID[sh.GlobalID] = sh
		}
		for _, sh := range f.servers[b].Store().Scan(lid, nil) {
			first, ok := byID[sh.GlobalID]
			if !ok {
				t.Fatalf("element %d missing on server %d", sh.GlobalID, a)
			}
			elem, err := posting.Decrypt([]posting.EncryptedShare{first, sh}, xs, 2)
			if err != nil {
				t.Fatal(err)
			}
			out[sh.GlobalID] = elem
		}
	}
	return out
}

func TestReshareKeepsSecrets(t *testing.T) {
	f := build(t)
	before := decryptAll(t, f, 0, 1)
	n, err := proactive.Reshare(f.servers, 2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("refreshed %d elements, want 5", n)
	}
	after := decryptAll(t, f, 0, 1)
	if len(before) != len(after) {
		t.Fatal("element count changed")
	}
	for gid, elem := range before {
		if after[gid] != elem {
			t.Errorf("element %d changed: %v -> %v", gid, elem, after[gid])
		}
	}
	// Every k-subset still agrees after the refresh.
	alt := decryptAll(t, f, 1, 2)
	for gid, elem := range after {
		if alt[gid] != elem {
			t.Errorf("element %d inconsistent across server subsets", gid)
		}
	}
}

func TestReshareChangesShares(t *testing.T) {
	f := build(t)
	var lid merging.ListID
	for l := range f.servers[0].Store().ListLengths() {
		lid = l
		break
	}
	before := f.servers[0].Store().Scan(lid, nil)
	if _, err := proactive.Reshare(f.servers, 2, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	after := f.servers[0].Store().Scan(lid, nil)
	changed := false
	for i := range before {
		if before[i].Y != after[i].Y {
			changed = true
		}
	}
	if !changed {
		t.Fatal("reshare left shares unchanged")
	}
}

func TestReshareNeutralizesStolenShares(t *testing.T) {
	f := build(t)
	// Adversary snapshots server 0 before the refresh.
	var lid merging.ListID
	for l := range f.servers[0].Store().ListLengths() {
		lid = l
		break
	}
	stolen := f.servers[0].Store().Scan(lid, nil)
	before := decryptAll(t, f, 0, 1)

	if _, err := proactive.Reshare(f.servers, 2, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}

	// Stolen (pre-refresh) share + fresh share from server 1 must NOT
	// reconstruct the real element.
	freshByID := make(map[posting.GlobalID]posting.EncryptedShare)
	for _, sh := range f.servers[1].Store().Scan(lid, nil) {
		freshByID[sh.GlobalID] = sh
	}
	xs := []field.Element{f.servers[0].XCoord(), f.servers[1].XCoord()}
	for _, old := range stolen {
		fresh := freshByID[old.GlobalID]
		secret, err := shamir.Reconstruct([]shamir.Share{
			{X: xs[0], Y: old.Y}, {X: xs[1], Y: fresh.Y},
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if posting.Decode(secret) == before[old.GlobalID] {
			t.Fatalf("stolen share for element %d still combines to the secret", old.GlobalID)
		}
	}
}

func TestReshareSearchStillWorks(t *testing.T) {
	f := build(t)
	if _, err := proactive.Reshare(f.servers, 2, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	// Full client path after resharing.
	cl, err := newClient(f)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := cl.Search(f.tok, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("post-reshare search = %v", res)
	}
}

func newClient(f *fixture) (*client.Client, error) {
	return client.New(f.apis, 2, f.table, f.voc)
}

func TestReshareValidation(t *testing.T) {
	f := build(t)
	if _, err := proactive.Reshare(f.servers[:1], 2, nil); !errors.Is(err, proactive.ErrTooFewServers) {
		t.Errorf("too few servers: %v", err)
	}
	// Make inventories diverge: insert an element on one server only.
	if err := transporttest.Insert(context.Background(), f.servers[0], f.tok, []transport.InsertOp{{
		List: 0, Share: posting.EncryptedShare{GlobalID: 999, Group: 1, Y: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := proactive.Reshare(f.servers, 2, nil); !errors.Is(err, proactive.ErrInconsistent) {
		t.Errorf("inconsistent inventories: %v", err)
	}
}

func TestRepeatedReshareRounds(t *testing.T) {
	f := build(t)
	before := decryptAll(t, f, 0, 2)
	for round := 0; round < 5; round++ {
		if _, err := proactive.Reshare(f.servers, 2, rand.New(rand.NewSource(int64(round)))); err != nil {
			t.Fatal(err)
		}
	}
	after := decryptAll(t, f, 0, 2)
	for gid, elem := range before {
		if after[gid] != elem {
			t.Fatalf("element %d corrupted after 5 rounds", gid)
		}
	}
}
