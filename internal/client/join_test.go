package client

import (
	"testing"

	"zerber/internal/field"
	"zerber/internal/posting"
	"zerber/internal/transport"
)

// xOnly is a server that has an x-coordinate and nothing else.
type xOnly struct {
	transport.API
	x field.Element
}

func (s xOnly) XCoord() field.Element { return s.x }

func xOnlyServers(n int) []transport.API {
	out := make([]transport.API, n)
	for i := range out {
		out[i] = xOnly{x: field.Element(i + 1)}
	}
	return out
}

// longestCluster is the longest run of occupied slots, the most steps one
// probe can take.
func longestCluster(t *joinTable) int {
	longest, run := 0, 0
	for _, s := range t.slots {
		if s == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

// TestJoinHashIsKeyed: the global IDs a join hashes come from the
// servers. Against a multiplier it knows, a server can send IDs that all
// probe from one slot, which makes the join quadratic; the same IDs
// under a client's own multiplier spread out.
func TestJoinHashIsKeyed(t *testing.T) {
	const n = 1 << 12
	const known = uint64(0x9E3779B97F4A7C15)
	inv := known // known⁻¹ mod 2^64 by Newton's iteration, doubling the good bits
	for range 6 {
		inv *= 2 - known*inv
	}
	shares := make([]posting.EncryptedShare, n)
	for i := range shares {
		// gid·known = i+1: every product has the same (zero) top bits.
		shares[i].GlobalID = posting.GlobalID(uint64(i+1) * inv)
	}
	attacked := joinTable{w: 2, mul: known}
	attacked.reset(0, n)
	attacked.add(0, shares)
	if got := longestCluster(&attacked); got != n {
		t.Fatalf("crafted IDs cluster %d long under the multiplier they were crafted for, want %d", got, n)
	}

	c, err := New(xOnlyServers(2), 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.joinMul%2 == 0 {
		t.Fatalf("client multiplier %#x is even", c.joinMul)
	}
	if c2, _ := New(xOnlyServers(2), 2, nil, nil); c2.joinMul == c.joinMul {
		t.Fatalf("two clients share the multiplier %#x", c.joinMul)
	}
	keyed := &c.newPipeline(nil).join
	keyed.reset(0, n)
	if i := keyed.add(0, shares); i >= 0 || len(keyed.gids) != n {
		t.Fatalf("keyed join: %d rows, redelivery at %d; want %d rows and none", len(keyed.gids), i, n)
	}
	if got := longestCluster(keyed); got*8 > n {
		t.Errorf("crafted IDs still cluster %d long under the client's own multiplier (%d rows)", got, n)
	}
}

// TestNewRejectsMoreThan64Servers pins the width of the holder mask.
func TestNewRejectsMoreThan64Servers(t *testing.T) {
	if _, err := New(xOnlyServers(maxServers), 2, nil, nil); err != nil {
		t.Errorf("%d servers: %v", maxServers, err)
	}
	if _, err := New(xOnlyServers(maxServers+1), 2, nil, nil); err == nil {
		t.Errorf("%d servers accepted", maxServers+1)
	}
}
