package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// Slot is one share slot: the set of physical nodes that jointly store
// the shares evaluated at one public x-coordinate, partitioned by a
// consistent-hashing ring. Slot implements store.Store over the node
// stores, so one index server over a Slot serves the slot exactly as it
// would serve a single storage engine.
//
// Membership is an online operation: AddNode and RemoveNode migrate
// lists through the two-phase handoff in migrate.go while the slot
// keeps serving. Authority over a list moves only at cutover — until
// then (and after an aborted move) routing overrides keep reads and
// writes on the node that actually holds the data, so a dead migration
// target degrades the slot to "some lists not yet rebalanced"
// (Pending > 0, retried by Rebalance) instead of wedging it.
type Slot struct {
	// ring holds the *desired* placement. Actual routing consults the
	// overrides below first: authority follows data, not the ring,
	// until each list's cutover.
	ring *Ring

	// migMu serializes membership operations (AddNode, RemoveNode,
	// Rebalance): at most one migration engine runs per slot.
	migMu sync.Mutex
	pol   MigrationPolicy
	sink  TransferSink
	hooks *SimHooks

	// mu guards the routing state. Every store call holds the read lock
	// across its routing decision and node call, so the migration
	// engine's state transitions (move start, cutover, abort) fence all
	// in-flight calls: a mutation is either in the copy snapshot or in
	// the move's dirty set, never lost, and a read never reaches a node
	// after its copy was dropped.
	mu       sync.RWMutex
	nodes    map[string]store.Store
	draining map[string]bool // still serving & in nodes, but off the ring
	epoch    Epoch
	moves    map[merging.ListID]*listMove // in-flight copy: source is authoritative
	stale    map[merging.ListID]string    // aborted/unfinished move: authority stays here
	aborts   map[merging.ListID]abortRec  // undelivered target cleanups
}

var _ store.Store = (*Slot)(nil)

// NewSlot creates a slot served by one node, named name, so routing
// never meets an empty ring. vnodesPerNode places each node on the ring
// that many times (0 means 32).
func NewSlot(vnodesPerNode int, name string, node store.Store) *Slot {
	s := &Slot{
		ring:     NewRing(vnodesPerNode),
		pol:      DefaultMigrationPolicy(),
		nodes:    map[string]store.Store{name: node},
		draining: make(map[string]bool),
		moves:    make(map[merging.ListID]*listMove),
		stale:    make(map[merging.ListID]string),
		aborts:   make(map[merging.ListID]abortRec),
	}
	s.ring.AddNode(name)
	s.sink = localSink{s}
	return s
}

// ownerOfLocked resolves which node is authoritative for a list right
// now: the source of an in-flight move, the recorded holder after an
// aborted move, or the ring owner. Caller holds mu (read or write).
func (s *Slot) ownerOfLocked(lid merging.ListID) (string, error) {
	if mv, ok := s.moves[lid]; ok {
		return mv.src, nil
	}
	if name, ok := s.stale[lid]; ok {
		return name, nil
	}
	return s.ring.OwnerOfList(lid)
}

// nodeOfLocked returns the node store authoritative for a list. The
// ring is never empty, and an owner leaves nodes only once it holds
// nothing, so a failure here is a broken slot. Caller holds mu.
func (s *Slot) nodeOfLocked(lid merging.ListID) store.Store {
	owner, err := s.ownerOfLocked(lid)
	if err != nil {
		panic(err)
	}
	node := s.nodes[owner]
	if node == nil {
		panic(fmt.Sprintf("dht: owner %s of list %d vanished", owner, lid))
	}
	return node
}

// AddNode joins a physical node to the slot and migrates the lists it
// now owns from their previous holders, online. The node serves its
// lists as each cutover lands. A per-list migration failure leaves
// that list on its previous owner (retried by Rebalance); the
// aggregated errors are returned but the node is a member regardless.
// The node's store must be empty: a list already on it would be
// neither authoritative nor cleaned up.
func (s *Slot) AddNode(name string, node store.Store) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.mu.Lock()
	if _, dup := s.nodes[name]; dup {
		s.mu.Unlock()
		if s.draining[name] {
			return fmt.Errorf("dht: node %s is still draining out of the slot", name)
		}
		return fmt.Errorf("dht: node %s already in slot", name)
	}
	if n := node.TotalElements(); n > 0 {
		s.mu.Unlock()
		return fmt.Errorf("dht: node %s already holds %d elements", name, n)
	}
	s.nodes[name] = node
	held := s.heldAuthorityLocked()
	s.ring.AddNode(name)
	s.pinAuthorityLocked(held)
	s.epoch++
	ep := s.epoch
	s.mu.Unlock()
	return s.rebalanceLocked(ep)
}

// authoritativeLocked calls f for every list a node holds and is
// authoritative for. Caller holds mu.
func (s *Slot) authoritativeLocked(f func(name string, lid merging.ListID, n int)) {
	for name, node := range s.nodes {
		for lid, n := range node.ListLengths() {
			if owner, err := s.ownerOfLocked(lid); err == nil && owner == name {
				f(name, lid, n)
			}
		}
	}
}

// heldAuthorityLocked maps every stored list to the node currently
// authoritative for it. Caller holds mu.
func (s *Slot) heldAuthorityLocked() map[merging.ListID]string {
	out := make(map[merging.ListID]string)
	s.authoritativeLocked(func(name string, lid merging.ListID, _ int) { out[lid] = name })
	return out
}

// pinAuthorityLocked records routing overrides after a ring change so
// that authority stays with the data: a list whose desired owner moved
// keeps routing to its current holder until its cutover, and overrides
// that became redundant are dropped. Caller holds mu.
func (s *Slot) pinAuthorityLocked(held map[merging.ListID]string) {
	for lid, holder := range held {
		want, err := s.ring.OwnerOfList(lid)
		if err != nil {
			continue
		}
		if want != holder {
			s.stale[lid] = holder
		} else {
			delete(s.stale, lid)
		}
	}
}

// RemoveNode takes a node off the ring and drains its lists to the
// remaining owners, online. The node keeps serving each list until
// that list's cutover. If any move fails, the node stays in the slot
// in a draining state — still authoritative for what it holds — and a
// later Rebalance (or RemoveNode again) finishes the job; the
// aggregated errors are returned. Removing the last ring node fails:
// its data would have nowhere to go.
func (s *Slot) RemoveNode(name string) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.mu.Lock()
	if _, ok := s.nodes[name]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("dht: node %s not in slot", name)
	}
	if !s.draining[name] {
		if s.ring.NumNodes() <= 1 {
			s.mu.Unlock()
			return errors.New("dht: cannot remove the last node of a slot")
		}
		// Pin authority before the ring forgets the node: each list the
		// node holds stays routed to it until its individual cutover.
		held := s.heldAuthorityLocked()
		s.ring.RemoveNode(name)
		s.draining[name] = true
		s.pinAuthorityLocked(held)
		s.epoch++
	}
	ep := s.epoch
	s.mu.Unlock()
	return s.rebalanceLocked(ep)
}

// routeLocked returns the node authoritative for lid and, if the list
// is under an active copy, its move with the journal lock held: the
// caller records the global IDs its mutation changes in the dirty set
// and unlocks, so drain rounds replay a consistent order. Caller holds
// mu.RLock.
func (s *Slot) routeLocked(lid merging.ListID) (store.Store, *listMove) {
	node := s.nodeOfLocked(lid)
	mv := s.moves[lid]
	if mv != nil {
		mv.jmu.Lock()
	}
	return node, mv
}

// Upsert writes the shares to the node authoritative for lid.
func (s *Slot) Upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	node, mv := s.routeLocked(lid)
	if mv != nil {
		defer mv.jmu.Unlock()
		for _, sh := range shares {
			mv.markDirty(sh.GlobalID)
		}
	}
	return node.Upsert(lid, shares)
}

// DeleteIf deletes on the node authoritative for lid.
func (s *Slot) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	node, mv := s.routeLocked(lid)
	found, deleted = node.DeleteIf(lid, gid, allow)
	if mv != nil {
		if deleted {
			mv.markDirty(gid)
		}
		mv.jmu.Unlock()
	}
	return found, deleted
}

// DropList drops lid from its authoritative node. Under an active copy
// every dropped ID is marked dirty, so the drain removes the target's
// copy too.
func (s *Slot) DropList(lid merging.ListID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	node, mv := s.routeLocked(lid)
	if mv != nil {
		defer mv.jmu.Unlock()
		for _, sh := range node.Scan(lid, nil) {
			mv.markDirty(sh.GlobalID)
		}
	}
	return node.DropList(lid)
}

// Scan reads lid from its authoritative node. The read lock is held
// across the node call, so a cutover cannot drop the copy under it.
func (s *Slot) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodeOfLocked(lid).Scan(lid, keep)
}

// ScanRange reads a window of lid from its authoritative node, under
// the same fence as Scan: a paged reader sees the list's full length on
// every page, whichever node serves it.
func (s *Slot) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) ([]posting.EncryptedShare, int, uint8) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodeOfLocked(lid).ScanRange(lid, from, n, keep)
}

// ApplyDeltas refreshes shares on their authoritative nodes, all or
// nothing across nodes: it holds the routing lock exclusively, so no
// write reaches any node meanwhile, and if one node refuses its part
// the parts already applied are negated again. Deltas to a list under
// an active copy mark its IDs dirty, so the drain sends the target the
// refreshed shares, not the ones copied before the round.
func (s *Slot) ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := make(map[store.Store]map[merging.ListID]map[posting.GlobalID]field.Element)
	for lid, m := range deltas {
		node := s.nodeOfLocked(lid)
		if parts[node] == nil {
			parts[node] = make(map[merging.ListID]map[posting.GlobalID]field.Element)
		}
		parts[node][lid] = m
	}
	var done []store.Store
	for node, part := range parts {
		if err := node.ApplyDeltas(part); err != nil {
			errs := []error{err}
			for _, prev := range done {
				errs = append(errs, prev.ApplyDeltas(store.NegateDeltas(parts[prev])))
			}
			return errors.Join(errs...)
		}
		done = append(done, node)
	}
	for lid, m := range deltas {
		if mv := s.moves[lid]; mv != nil {
			mv.jmu.Lock()
			for gid := range m {
				mv.markDirty(gid)
			}
			mv.jmu.Unlock()
		}
	}
	return nil
}

// ListLengths returns the lengths of the authoritative copies: a
// target's partial copy and a leftover awaiting cleanup are not part of
// the slot's contents.
func (s *Slot) ListLengths() map[merging.ListID]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[merging.ListID]int)
	s.authoritativeLocked(func(_ string, lid merging.ListID, n int) { out[lid] = n })
	return out
}

// TotalElements counts the authoritative copies' elements. It asks every
// node for its list lengths, so unlike a single engine's it costs
// O(lists).
func (s *Slot) TotalElements() int {
	total := 0
	for _, n := range s.ListLengths() {
		total += n
	}
	return total
}

// Sync marks a batch boundary on every node. The nodes are synced
// outside the routing lock, so a cutover never waits behind an fsync; a
// node retired meanwhile holds nothing, and its Sync is a no-op.
func (s *Slot) Sync() error {
	s.mu.RLock()
	nodes := make([]store.Store, 0, len(s.nodes))
	for _, node := range s.nodes {
		nodes = append(nodes, node)
	}
	s.mu.RUnlock()
	var errs []error
	for _, node := range nodes {
		errs = append(errs, node.Sync())
	}
	return errors.Join(errs...)
}

// NumNodes returns the number of physical nodes serving the slot
// (including nodes still draining out).
func (s *Slot) NumNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// Node returns a physical node's store by name (for instrumentation).
func (s *Slot) Node(name string) (store.Store, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	node, ok := s.nodes[name]
	return node, ok
}

// NodeNames returns the sorted names of every node serving the slot,
// including nodes still draining out.
func (s *Slot) NodeNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.nodes))
	for name := range s.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RingOwnerOfList returns the ring's desired owner of a list — where
// the list will live once all pending migration work has converged.
func (s *Slot) RingOwnerOfList(lid merging.ListID) (string, error) {
	return s.ring.OwnerOfList(lid)
}

// RingNodes returns the sorted names of the ring members — the nodes
// new lists hash to. Draining nodes are excluded.
func (s *Slot) RingNodes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Nodes()
}

// ListDistribution returns, per node, how many lists it currently holds.
func (s *Slot) ListDistribution() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int, len(s.nodes))
	for name, node := range s.nodes {
		out[name] = len(node.ListLengths())
	}
	return out
}
