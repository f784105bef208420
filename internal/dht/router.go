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
// Membership is an online operation: AddNode and RemoveNode move lists
// through the two-phase handoff in migrate.go while the slot keeps
// serving, and return once every move has landed. Authority over a list
// moves only at its cutover; until then a routing pin keeps reads and
// writes on the node that holds the data.
type Slot struct {
	// ring holds the *desired* placement. Actual routing consults the
	// pins below first: authority follows data, not the ring, until
	// each list's cutover. Guarded by mu, like the routing state.
	ring *Ring

	// migMu serializes membership operations (AddNode, RemoveNode): at
	// most one migration engine runs per slot.
	migMu sync.Mutex
	hooks *SimHooks

	// mu guards the routing state. Every store call holds the read lock
	// across its routing decision and node call, so the migration
	// engine's state transitions (move start, cutover) fence all
	// in-flight calls: a mutation is either in the copy snapshot or in
	// the move's dirty set, never lost, and a read never reaches a node
	// after its copy was dropped.
	mu       sync.RWMutex
	nodes    map[string]store.Store
	draining map[string]bool           // still in nodes, but off the ring
	stale    map[merging.ListID]string // list not yet cut over: authority stays here
	move     *listMove                 // the in-flight copy, nil between moves
}

var _ store.Store = (*Slot)(nil)

// NewSlot creates a slot served by one node, named name, so routing
// never meets an empty ring.
func NewSlot(name string, node store.Store) *Slot {
	s := &Slot{
		ring:     NewRing(),
		nodes:    map[string]store.Store{name: node},
		draining: make(map[string]bool),
		stale:    make(map[merging.ListID]string),
	}
	s.ring.AddNode(name)
	return s
}

// ringOwnerLocked returns the ring's owner of a list. The ring is never
// empty, so a failure here is a broken slot. Caller holds mu.
func (s *Slot) ringOwnerLocked(lid merging.ListID) string {
	owner, err := s.ring.OwnerOfList(lid)
	if err != nil {
		panic(err)
	}
	return owner
}

// ownerOfLocked resolves which node is authoritative for a list right
// now: its pinned holder until its cutover, else its ring owner. Caller
// holds mu (read or write).
func (s *Slot) ownerOfLocked(lid merging.ListID) string {
	if name, ok := s.stale[lid]; ok {
		return name
	}
	return s.ringOwnerLocked(lid)
}

// nodeOfLocked returns the node store authoritative for a list. An
// owner leaves nodes only once it holds nothing and no pin names it, so
// a failure here is a broken slot. Caller holds mu.
func (s *Slot) nodeOfLocked(lid merging.ListID) store.Store {
	owner := s.ownerOfLocked(lid)
	node := s.nodes[owner]
	if node == nil {
		panic(fmt.Sprintf("dht: owner %s of list %d vanished", owner, lid))
	}
	return node
}

// AddNode joins a physical node to the slot and moves the lists it now
// owns from their previous holders, online. The node serves each list
// as its cutover lands, and every move has landed when AddNode returns.
// The node's store must be empty: a list already on it would be neither
// authoritative nor cleaned up.
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
	s.repinLocked(func() { s.ring.AddNode(name) })
	s.mu.Unlock()
	s.migrateLocked()
	return nil
}

// authoritativeLocked calls f for every list a node holds and is
// authoritative for. Caller holds mu.
func (s *Slot) authoritativeLocked(f func(name string, lid merging.ListID, n int)) {
	for name, node := range s.nodes {
		for lid, n := range node.ListLengths() {
			if s.ownerOfLocked(lid) == name {
				f(name, lid, n)
			}
		}
	}
}

// repinLocked applies a ring change so that authority stays with the
// data: afterwards every list whose ring owner is not its current
// holder is pinned to that holder until its cutover, and no other list
// is pinned. Caller holds mu exclusively and migMu.
func (s *Slot) repinLocked(changeRing func()) {
	held := make(map[merging.ListID]string)
	s.authoritativeLocked(func(name string, lid merging.ListID, _ int) { held[lid] = name })
	changeRing()
	s.stale = make(map[merging.ListID]string)
	for lid, holder := range held {
		if s.ringOwnerLocked(lid) != holder {
			s.stale[lid] = holder
		}
	}
}

// RemoveNode takes a node off the ring and drains its lists to the
// remaining owners, online. The node keeps serving each list until that
// list's cutover and has left the slot when RemoveNode returns.
// Removing the last ring node fails: its data would have nowhere to go.
func (s *Slot) RemoveNode(name string) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.mu.Lock()
	if _, ok := s.nodes[name]; !ok || s.draining[name] {
		s.mu.Unlock()
		return fmt.Errorf("dht: node %s not in slot", name)
	}
	if s.ring.NumNodes() <= 1 {
		s.mu.Unlock()
		return errors.New("dht: cannot remove the last node of a slot")
	}
	s.draining[name] = true
	s.repinLocked(func() { s.ring.RemoveNode(name) })
	s.mu.Unlock()
	s.migrateLocked()
	return nil
}

// routeLocked returns the node authoritative for lid and, if the list
// is under the active copy, its move with the journal lock held: the
// caller records the global IDs its mutation changes in the dirty set
// and unlocks, so drain rounds replay a consistent order. Caller holds
// mu.RLock.
func (s *Slot) routeLocked(lid merging.ListID) (store.Store, *listMove) {
	node := s.nodeOfLocked(lid)
	mv := s.move
	if mv == nil || mv.lid != lid {
		return node, nil
	}
	mv.jmu.Lock()
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
		shares := node.Scan(lid, nil)
		for _, sh := range shares {
			mv.markDirty(sh.GlobalID)
		}
		posting.PutShares(shares)
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
	if mv := s.move; mv != nil {
		mv.jmu.Lock()
		for gid := range deltas[mv.lid] {
			mv.markDirty(gid)
		}
		mv.jmu.Unlock()
	}
	return nil
}

// ListLengths returns the lengths of the authoritative copies: a
// target's partial copy is not part of the slot's contents.
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

// RingOwnerOfList returns the ring's owner of a list — where the list
// lives whenever no membership operation is in progress.
func (s *Slot) RingOwnerOfList(lid merging.ListID) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.OwnerOfList(lid)
}

// RingNodes returns the sorted names of the ring members — the nodes
// lists hash to. A node draining out is excluded.
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
