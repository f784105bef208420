package auth

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIssueVerifyRoundTrip(t *testing.T) {
	s, err := NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tok := s.Issue("alice")
	user, err := s.Verify(tok)
	if err != nil {
		t.Fatal(err)
	}
	if user != "alice" {
		t.Errorf("verified user = %q, want alice", user)
	}
}

func TestVerifySharedKeyAcrossServers(t *testing.T) {
	// Several index servers verify tokens issued by the central service.
	central, err := NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServiceWithKey(central.Key(), time.Minute)
	tok := central.Issue("bob")
	user, err := server.Verify(tok)
	if err != nil || user != "bob" {
		t.Fatalf("cross-server verify = %q, %v", user, err)
	}
}

func TestForgedTokenRejected(t *testing.T) {
	s, err := NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// A token minted under a different key must not verify.
	if _, err := s.Verify(other.Issue("mallory")); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("foreign token: got %v, want ErrInvalidToken", err)
	}
}

func TestTamperedTokenRejected(t *testing.T) {
	s, err := NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tok := string(s.Issue("alice"))
	// Swap the user part for another user (attempting privilege escalation).
	forged := strings.Replace(tok, tok[:strings.Index(tok, ".")], "Ym9i", 1) // "bob"
	if _, err := s.Verify(Token(forged)); err == nil {
		t.Error("tampered token verified")
	}
	// Garbage tokens.
	for _, bad := range []string{"", "a.b", "a.b.c.d", "!!!.###.$$$"} {
		if _, err := s.Verify(Token(bad)); err == nil {
			t.Errorf("garbage token %q verified", bad)
		}
	}
}

func TestExpiredTokenRejected(t *testing.T) {
	s := NewServiceWithKey([]byte("0123456789abcdef0123456789abcdef"), time.Minute)
	base := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return base }
	tok := s.Issue("alice")
	s.now = func() time.Time { return base.Add(2 * time.Minute) }
	if _, err := s.Verify(tok); !errors.Is(err, ErrExpiredToken) {
		t.Errorf("got %v, want ErrExpiredToken", err)
	}
}

func TestKeyIsCopied(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	s := NewServiceWithKey(key, time.Minute)
	tok := s.Issue("alice")
	key[0] ^= 0xFF // mutating the caller's slice must not affect the service
	if _, err := s.Verify(tok); err != nil {
		t.Error("service key aliased caller's slice")
	}
	got := s.Key()
	got[0] ^= 0xFF
	if _, err := s.Verify(s.Issue("bob")); err != nil {
		t.Error("Key() leaked internal slice")
	}
}

func TestGroupTableAddRemove(t *testing.T) {
	g := NewGroupTable()
	g.Add("alice", 1)
	g.Add("alice", 2)
	g.Add("bob", 1)

	if got := g.GroupsOf("alice"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("GroupsOf(alice) = %v", got)
	}
	if !g.IsMember("bob", 1) || g.IsMember("bob", 2) {
		t.Error("membership wrong")
	}
	if got := g.MembersOf(1); len(got) != 2 {
		t.Errorf("MembersOf(1) = %v", got)
	}
	if !g.Remove("alice", 1) {
		t.Error("Remove reported missing membership")
	}
	if g.Remove("alice", 1) {
		t.Error("double Remove reported success")
	}
	if g.IsMember("alice", 1) {
		t.Error("removed membership still visible")
	}
	if g.NumGroups() != 2 {
		t.Errorf("NumGroups = %d, want 2 (group 1 keeps bob, group 2 keeps alice)", g.NumGroups())
	}
}

func TestGroupTableImmediateRevocation(t *testing.T) {
	// §5.3: membership changes are immediately reflected.
	g := NewGroupTable()
	g.Add("carol", 7)
	set := g.GroupSetOf("carol")
	if !set.Has(7) {
		t.Fatal("set missing group")
	}
	g.Remove("carol", 7)
	if g.GroupSetOf("carol").Has(7) {
		t.Error("revoked group still in set")
	}
	// Previously-fetched snapshots are unaffected: a request finishes
	// with the set it started with.
	if !set.Has(7) {
		t.Error("GroupSetOf must return a snapshot")
	}
}

func TestGroupTableIdempotentAdd(t *testing.T) {
	g := NewGroupTable()
	g.Add("dave", 3)
	g.Add("dave", 3)
	if got := g.GroupsOf("dave"); len(got) != 1 {
		t.Errorf("GroupsOf after double add = %v", got)
	}
}

func TestGroupTableConcurrent(t *testing.T) {
	g := NewGroupTable()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := UserID(rune('a' + i))
			for j := 0; j < 100; j++ {
				g.Add(u, GroupID(j%10))
				_ = g.GroupsOf(u)
				_ = g.GroupSetOf(u)
				if j%2 == 0 {
					g.Remove(u, GroupID(j%10))
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestNumGroupsAfterEmptied(t *testing.T) {
	g := NewGroupTable()
	g.Add("x", 1)
	g.Remove("x", 1)
	if g.NumGroups() != 0 {
		t.Errorf("NumGroups = %d, want 0 after last member leaves", g.NumGroups())
	}
	if got := g.GroupsOf("x"); len(got) != 0 {
		t.Errorf("GroupsOf(x) = %v, want empty", got)
	}
}
