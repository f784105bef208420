// Package proactive implements system-level proactive secret resharing
// for a Zerber cluster (paper §5.1: "if an adversary learns some of the
// shares, proactive sharing techniques can be used to prevent the
// adversary from getting k shares", citing Herzberg et al. [21]).
//
// One resharing round, per stored posting element: each server
// contributes a fresh random polynomial g_i with g_i(0) = 0; server j
// replaces its share y_j with y_j + Σ_i g_i(x_j). Because every g_i has
// zero constant term, the shared secret is unchanged, but shares
// captured before the round no longer combine with shares captured
// after it.
//
// This package simulates the pairwise delta exchange in-process: the
// coordinator asks every server for its element inventory, verifies the
// inventories agree (a partially replicated element would be destroyed
// by resharing), generates per-element zero-polynomials on each server's
// behalf, and applies the summed deltas atomically per server.
package proactive

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/shamir"
	"zerber/internal/store"
)

// Errors returned by Reshare.
var (
	ErrTooFewServers = errors.New("proactive: need at least k servers")
	ErrInconsistent  = errors.New("proactive: servers disagree on the stored element set")
	// ErrConcurrentMutation reports that the stored element set changed
	// while the round was running — a concurrent writer raced the
	// resharing. The round is abandoned with every server's shares
	// restored to their pre-round values; the caller may simply retry
	// once the cluster is quiet.
	ErrConcurrentMutation = errors.New("proactive: element set changed mid-round")
)

// Test hooks: the package's own tests interpose concurrent mutations at
// the two windows a real concurrent writer could hit. Nil in production.
var (
	// testHookGenerated runs after delta generation, before the
	// pre-apply inventory re-check.
	testHookGenerated func()
	// testHookApplied runs after server i's deltas have been applied.
	testHookApplied func(i int)
)

// Reshare runs one resharing round over all elements stored on the
// given servers, using polynomials of degree k-1. rng supplies
// randomness (nil means crypto/rand). It returns the number of elements
// refreshed.
func Reshare(servers []*server.Server, k int, rng io.Reader) (int, error) {
	if k < 1 || len(servers) < k {
		return 0, fmt.Errorf("%w: k=%d, servers=%d", ErrTooFewServers, k, len(servers))
	}

	// Agree on the element inventory, read from the storage engines
	// directly: resharing is a trusted server-to-server protocol below
	// the client API.
	base := inventory(servers[0].Store())
	for _, s := range servers[1:] {
		if !sameInventory(base, inventory(s.Store())) {
			return 0, fmt.Errorf("%w: %s differs from %s",
				ErrInconsistent, s.Name(), servers[0].Name())
		}
	}

	xs := make([]field.Element, len(servers))
	for i, s := range servers {
		xs[i] = s.XCoord()
	}

	// Accumulate per-server deltas. In the real protocol each server
	// generates one zero-polynomial per element and sends evaluations to
	// its peers; summing n zero-polynomials is again a zero-polynomial,
	// so generating the sum directly is behaviourally identical and
	// keeps the simulation O(elements * n).
	//
	// A refresh delta is exactly a Shamir share of the secret 0, so
	// delta generation runs through the batched splitting pipeline: one
	// Splitter validates the x-coordinates and precomputes the power
	// table once, and each list's deltas are produced by a single
	// SplitBatch over a zero-secret vector instead of a fresh polynomial
	// allocation and n Horner evaluations per element.
	sp, err := shamir.NewSplitter(k, xs)
	if err != nil {
		return 0, fmt.Errorf("proactive: preparing splitter: %w", err)
	}
	deltas := make([]map[merging.ListID]map[posting.GlobalID]field.Element, len(servers))
	for i := range deltas {
		deltas[i] = make(map[merging.ListID]map[posting.GlobalID]field.Element, len(base))
	}
	count := 0
	var zeros, ys []field.Element // scratch, grown to the largest list
	for lid, gids := range base {
		s := len(gids)
		if cap(zeros) < s {
			zeros = make([]field.Element, s)
		}
		if cap(ys) < s*len(servers) {
			ys = make([]field.Element, s*len(servers))
		}
		if err := sp.SplitBatch(zeros[:s], ys[:s*len(servers)], rng); err != nil {
			return 0, fmt.Errorf("proactive: generating refresh deltas: %w", err)
		}
		for i := range deltas {
			m := make(map[posting.GlobalID]field.Element, s)
			for j, gid := range gids {
				m[gid] = ys[i*s+j]
			}
			deltas[i][lid] = m
		}
		count += s
	}

	if testHookGenerated != nil {
		testHookGenerated()
	}

	// Re-verify the inventory immediately before applying: delta
	// generation is the round's longest stretch, and a delta map keyed
	// to a stale inventory must not reach the stores — an element
	// deleted in between would fail one server's ApplyDeltas after
	// earlier servers already refreshed, and an element whose stage
	// landed on only some servers would be refreshed asymmetrically.
	for _, s := range servers {
		if !sameInventory(base, inventory(s.Store())) {
			return 0, fmt.Errorf("%w: inventory on %s changed during delta generation",
				ErrConcurrentMutation, s.Name())
		}
	}

	// Apply per server; per-store application is all-or-nothing. If a
	// server still fails (a writer slipped past the re-check), negate
	// the deltas already applied so no element is left refreshed on
	// some servers and stale on others — that asymmetry would make the
	// element unreconstructable, which is worse than a skipped round.
	for i, s := range servers {
		if err := s.Store().ApplyDeltas(deltas[i]); err != nil {
			if rberr := rollback(servers[:i], deltas[:i]); rberr != nil {
				return 0, fmt.Errorf("proactive: applying deltas on %s: %v; rollback failed, shares inconsistent: %w",
					s.Name(), err, rberr)
			}
			if errors.Is(err, store.ErrMissing) {
				return 0, fmt.Errorf("%w: apply on %s hit a vanished element (%v); round rolled back",
					ErrConcurrentMutation, s.Name(), err)
			}
			return 0, fmt.Errorf("proactive: applying deltas on %s (round rolled back): %w", s.Name(), err)
		}
		if testHookApplied != nil {
			testHookApplied(i)
		}
	}
	return count, nil
}

// rollback restores servers that already applied their refresh deltas
// by applying the negated deltas. Attempted on every server even if one
// fails; the aggregated error reports exactly which servers are stuck.
func rollback(servers []*server.Server, deltas []map[merging.ListID]map[posting.GlobalID]field.Element) error {
	var errs []error
	for i, s := range servers {
		if err := s.Store().ApplyDeltas(store.NegateDeltas(deltas[i])); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", s.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// inventory is one server's stored element set as list -> ascending
// global IDs: its list lengths, then each list's IDs through a ranged
// read. A ranged read does not admit a cold list to a disk engine's
// cache, so a round leaves the cache as it found it; its shares go back
// to posting's pool once their IDs are copied out. A list that
// vanished between the two calls is skipped.
func inventory(st store.Store) map[merging.ListID][]posting.GlobalID {
	lengths := st.ListLengths()
	out := make(map[merging.ListID][]posting.GlobalID, len(lengths))
	for lid, n := range lengths {
		shares, _, _ := st.ScanRange(lid, 0, n, nil)
		if len(shares) == 0 {
			continue
		}
		ids := make([]posting.GlobalID, len(shares))
		for i, sh := range shares {
			ids[i] = sh.GlobalID
		}
		posting.PutShares(shares)
		slices.Sort(ids)
		out[lid] = ids
	}
	return out
}

func sameInventory(a, b map[merging.ListID][]posting.GlobalID) bool {
	return maps.EqualFunc(a, b, slices.Equal[[]posting.GlobalID])
}
