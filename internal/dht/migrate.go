package dht

import (
	"sort"
	"sync"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// This file is the slot's online migration engine: a two-phase handoff
// that moves one merged posting list between node stores, with plain
// store calls, while the slot keeps serving reads and journaled
// mutations.
//
// Phase 1 (copy): the source stays authoritative. The engine snapshots
// the list under the routing lock and upserts the snapshot into the
// target in chunks of moveChunk shares. Mutations that land mid-copy
// are applied to the source as usual and their global IDs recorded in
// the move's dirty set; a drain round reconciles the target with the
// source's current state of exactly those IDs, which is idempotent and
// condition-free (upsert what exists, delete what does not).
//
// Phase 2 (cutover): after one drain round without the routing lock,
// the engine takes the lock exclusively, drains whatever is still dirty
// there and flips ownership. Every serving call holds the read lock
// across its routing decision and node call, so under the exclusive
// hold no mutation is in flight and none can dirty the list again: the
// two replicas are equal when routing flips. Only after the flip does
// the source drop its copy.
//
// A move therefore always completes: node store calls return no error.

// moveChunk is the number of shares per target Upsert of the copy
// phase.
const moveChunk = 256

// SimHooks re-enable known-bad behavior for the model checker, proving
// its churn checks are not vacuous. Must be nil outside the checker.
type SimHooks struct {
	// LoseCutover performs the buggy ancestor of the two-phase handoff:
	// the source drops its list but the routing flip is "lost", leaving
	// authority pointing at a node that no longer has the data.
	LoseCutover bool
}

// listMove is the one in-flight copy phase. While it is Slot.move, the
// source remains authoritative for the list.
type listMove struct {
	lid merging.ListID

	// jmu guards dirty. The mutation path applies to the source and
	// records dirty IDs under jmu, so drain rounds observe a consistent
	// order.
	jmu   sync.Mutex
	dirty map[posting.GlobalID]struct{}
}

func (mv *listMove) markDirty(gid posting.GlobalID) {
	if mv.dirty == nil {
		mv.dirty = make(map[posting.GlobalID]struct{})
	}
	mv.dirty[gid] = struct{}{}
}

func (mv *listMove) takeDirty() []posting.GlobalID {
	mv.jmu.Lock()
	defer mv.jmu.Unlock()
	if len(mv.dirty) == 0 {
		return nil
	}
	out := make([]posting.GlobalID, 0, len(mv.dirty))
	for gid := range mv.dirty {
		out = append(out, gid)
	}
	mv.dirty = nil
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetSimHooks installs model-checker hooks. Must be nil outside tests.
func (s *Slot) SetSimHooks(h *SimHooks) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.hooks = h
}

// migrateLocked moves every pinned list to its ring owner, in list
// order, then retires the draining nodes left empty. Caller holds migMu.
func (s *Slot) migrateLocked() {
	s.mu.RLock()
	lids := make([]merging.ListID, 0, len(s.stale))
	for lid := range s.stale {
		lids = append(lids, lid)
	}
	s.mu.RUnlock()
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, lid := range lids {
		s.runMove(lid)
	}

	// A node that routing still names stays: only the LoseCutover hook
	// leaves such a pin behind, and the next membership operation
	// re-pins from the lists' holders.
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned := make(map[string]bool)
	for _, holder := range s.stale {
		pinned[holder] = true
	}
	for name := range s.draining {
		if !pinned[name] && s.nodes[name].TotalElements() == 0 {
			delete(s.nodes, name)
			delete(s.draining, name)
		}
	}
}

// runMove executes the two-phase handoff of one pinned list from its
// holder to its ring owner. The caller holds migMu, so at most one move
// is in flight per slot and membership cannot change underneath it.
func (s *Slot) runMove(lid merging.ListID) {
	s.mu.Lock()
	src := s.nodes[s.stale[lid]]
	dst := s.nodes[s.ringOwnerLocked(lid)]
	mv := &listMove{lid: lid}
	s.move = mv
	snapshot := src.Scan(lid, nil)
	s.mu.Unlock()

	// Copy phase: the source keeps serving; concurrent mutations mark
	// their IDs dirty.
	for off := 0; off < len(snapshot); off += moveChunk {
		dst.Upsert(lid, snapshot[off:min(off+moveChunk, len(snapshot))])
	}
	// Upsert keeps copies, so the snapshot goes back to posting's pool.
	posting.PutShares(snapshot)
	drain(mv, src, dst)

	// Cutover: under the exclusive hold nothing can dirty the list
	// again, so one last drain leaves the two copies equal.
	s.mu.Lock()
	drain(mv, src, dst)
	s.move = nil
	// The LoseCutover bug shape loses the flip: routing keeps naming the
	// source, which drops its copy below.
	if s.hooks == nil || !s.hooks.LoseCutover {
		delete(s.stale, lid)
	}
	s.mu.Unlock()
	// Reads and writes now route to dst. Dropping the source's copy
	// after the flip is safe: every store call holds the routing lock
	// across its node call, so none still addresses it.
	src.DropList(lid)
}

// drain reconciles dst with src's current state of every ID mutated
// since the last round.
func drain(mv *listMove, src, dst store.Store) {
	dirty := mv.takeDirty()
	if len(dirty) == 0 {
		return
	}
	current := make(map[posting.GlobalID]posting.EncryptedShare)
	shares := src.Scan(mv.lid, nil)
	for _, sh := range shares {
		current[sh.GlobalID] = sh
	}
	posting.PutShares(shares)
	var upserts []posting.EncryptedShare
	for _, gid := range dirty {
		if sh, ok := current[gid]; ok {
			upserts = append(upserts, sh)
		} else {
			dst.DeleteIf(mv.lid, gid, nil)
		}
	}
	if len(upserts) > 0 {
		dst.Upsert(mv.lid, upserts)
	}
}
