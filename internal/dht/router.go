package dht

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/transport"
)

// Slot is one share slot: the set of physical nodes that jointly store
// the shares evaluated at one public x-coordinate, partitioned by a
// consistent-hashing ring. Slot implements transport.API, so a Zerber
// peer or client can use a Slot wherever it would use a monolithic
// index server.
//
// Membership is an online operation: AddNode and RemoveNode migrate
// lists through the two-phase handoff in migrate.go while the slot
// keeps serving. Authority over a list moves only at cutover — until
// then (and after an aborted move) routing overrides keep reads and
// writes on the node that actually holds the data, so a dead migration
// target degrades the slot to "some lists not yet rebalanced"
// (Pending > 0, retried by Rebalance) instead of wedging it.
type Slot struct {
	x field.Element

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

	// mu guards the routing state. Every serving call holds the read
	// lock across its routing decision and node dispatch, so the
	// migration engine's state transitions (move start, cutover,
	// abort) fence all in-flight calls: a mutation is either in the
	// copy snapshot or in the move's dirty set, never lost.
	mu       sync.RWMutex
	nodes    map[string]*server.Server
	draining map[string]bool // still serving & in nodes, but off the ring
	epoch    Epoch
	moves    map[merging.ListID]*listMove // in-flight copy: source is authoritative
	stale    map[merging.ListID]string    // aborted/unfinished move: authority stays here
	aborts   map[merging.ListID]abortRec  // undelivered target cleanups

	// ops dedups mutation stages above the per-node windows, which are
	// route-dependent and stop working across topology changes (see
	// Apply). Callers are keyed by token, like the node windows are
	// keyed by verified user: op IDs are unique per caller, not globally.
	// One FIFO across all tokens, so minting tokens cannot grow it.
	ops *transport.OpWindow[auth.Token]
}

var _ transport.API = (*Slot)(nil)

// NewSlot creates an empty slot for the given x-coordinate.
func NewSlot(x field.Element, vnodesPerNode int) (*Slot, error) {
	if x == 0 {
		return nil, errors.New("dht: x-coordinate 0 is reserved for the secret")
	}
	s := &Slot{
		x:        x,
		ring:     NewRing(vnodesPerNode),
		pol:      DefaultMigrationPolicy(),
		nodes:    make(map[string]*server.Server),
		draining: make(map[string]bool),
		moves:    make(map[merging.ListID]*listMove),
		stale:    make(map[merging.ListID]string),
		aborts:   make(map[merging.ListID]abortRec),
		ops:      transport.NewSharedOpWindow[auth.Token](),
	}
	s.sink = localSink{s}
	return s, nil
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

// AddNode joins a physical node to the slot and migrates the lists it
// now owns from their previous holders, online. The node serves its
// lists as each cutover lands. A per-list migration failure leaves
// that list on its previous owner (retried by Rebalance); the
// aggregated errors are returned but the node is a member regardless.
// The node's server must be configured with the slot's x-coordinate
// (shares are bound to x, not to boxes).
func (s *Slot) AddNode(name string, srv *server.Server) error {
	if srv.XCoord() != s.x {
		return fmt.Errorf("dht: node %s has x=%d, slot requires x=%d", name, srv.XCoord(), s.x)
	}
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
	s.nodes[name] = srv
	held := s.heldAuthorityLocked()
	s.ring.AddNode(name)
	s.pinAuthorityLocked(held)
	s.epoch++
	ep := s.epoch
	s.mu.Unlock()
	return s.rebalanceLocked(ep)
}

// heldAuthorityLocked maps every stored list to the node currently
// authoritative for it. Caller holds mu.
func (s *Slot) heldAuthorityLocked() map[merging.ListID]string {
	out := make(map[merging.ListID]string)
	for name, srv := range s.nodes {
		for lid := range srv.ListLengths() {
			if owner, err := s.ownerOfLocked(lid); err == nil && owner == name {
				out[lid] = name
			}
		}
	}
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

// XCoord returns the slot's public x-coordinate.
func (s *Slot) XCoord() field.Element { return s.x }

// opParts is one dispatch group of a routed mutation.
type opParts struct {
	ins  []transport.InsertOp
	dels []transport.DeleteOp
}

// routeLocked splits a mutation by authoritative destination: settled
// lists group per node, lists under an active copy group per move (the
// source applies them and the move's dirty set records the touched
// IDs). Caller holds mu.RLock.
func (s *Slot) routeLocked(inserts []transport.InsertOp, deletes []transport.DeleteOp) (map[string]*opParts, map[merging.ListID]*opParts, error) {
	normal := make(map[string]*opParts)
	moving := make(map[merging.ListID]*opParts)
	route := func(lid merging.ListID) (*opParts, error) {
		if _, ok := s.moves[lid]; ok {
			p := moving[lid]
			if p == nil {
				p = &opParts{}
				moving[lid] = p
			}
			return p, nil
		}
		owner, err := s.ownerOfLocked(lid)
		if err != nil {
			return nil, err
		}
		p := normal[owner]
		if p == nil {
			p = &opParts{}
			normal[owner] = p
		}
		return p, nil
	}
	for _, op := range inserts {
		p, err := route(op.List)
		if err != nil {
			return nil, nil, err
		}
		p.ins = append(p.ins, op)
	}
	for _, op := range deletes {
		p, err := route(op.List)
		if err != nil {
			return nil, nil, err
		}
		p.dels = append(p.dels, op)
	}
	return normal, moving, nil
}

// applyMoving dispatches one migrating list's part to the move's
// source and records the touched IDs in the dirty set, atomically per
// list (jmu), so drain rounds replay a consistent order.
func (s *Slot) applyMoving(ctx context.Context, tok auth.Token, op transport.OpID, lid merging.ListID, p *opParts) error {
	mv := s.moves[lid]
	srv := s.nodes[mv.src]
	if srv == nil {
		return fmt.Errorf("dht: owner %s vanished", mv.src)
	}
	mv.jmu.Lock()
	defer mv.jmu.Unlock()
	if err := srv.Apply(ctx, tok, op, p.ins, p.dels); err != nil {
		return err
	}
	for _, op := range p.ins {
		mv.markDirty(op.Share.GlobalID)
	}
	for _, op := range p.dels {
		mv.markDirty(op.ID)
	}
	return nil
}

// Apply routes one mutation stage to the nodes authoritative for its
// posting lists. The slot deduplicates redelivered stages itself,
// before routing: node-level dedup remembers sub-batches, which change
// whenever membership re-partitions the lists, so an arbitrarily
// delayed redelivery after a topology change would reach nodes that
// never saw the stage and re-apply it — resurrecting elements deleted
// in between. The slot's window keys on the full, partition-independent
// payload, so a redelivery is recognized under any topology. The op ID
// is still forwarded: the node windows absorb redeliveries that race a
// single node's retries within one routing generation.
func (s *Slot) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	var sum uint32
	if !op.IsZero() {
		sum = transport.PayloadSum(inserts, deletes)
		if s.ops.Seen(tok, op, sum) {
			return nil
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	normal, moving, err := s.routeLocked(inserts, deletes)
	if err != nil {
		return err
	}
	for name, p := range normal {
		srv := s.nodes[name]
		if srv == nil {
			return fmt.Errorf("dht: owner %s vanished", name)
		}
		if err := srv.Apply(ctx, tok, op, p.ins, p.dels); err != nil {
			return err
		}
	}
	for lid, p := range moving {
		if err := s.applyMoving(ctx, tok, op, lid, p); err != nil {
			return err
		}
	}
	// Recorded only on full success: a partial failure must re-apply on
	// retry, which converges (upserts + conditional deletes).
	if !op.IsZero() {
		s.ops.Record(tok, op, sum)
	}
	return nil
}

// GetPostingLists fans the request to the authoritative holders of the
// requested lists and merges the responses. Reads route like writes:
// to the source during a copy, to the recorded holder after an aborted
// move — a half-ingested target copy is never read.
func (s *Slot) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	grouped := make(map[string][]merging.ListID)
	for _, lid := range lists {
		owner, err := s.ownerOfLocked(lid)
		if err != nil {
			return nil, err
		}
		grouped[owner] = append(grouped[owner], lid)
	}
	out := make(map[merging.ListID][]posting.EncryptedShare, len(lists))
	for name, nodeLists := range grouped {
		srv := s.nodes[name]
		if srv == nil {
			return nil, fmt.Errorf("dht: owner %s vanished", name)
		}
		part, err := srv.GetPostingLists(ctx, tok, nodeLists)
		if err != nil {
			return nil, err
		}
		for lid, shares := range part {
			out[lid] = shares
		}
	}
	return out, nil
}

// GetPostingBlocks routes a paged lookup to the single authoritative
// holder of the list, under the same mid-migration routing rules as
// GetPostingLists: the source serves during a copy, the recorded holder
// after an aborted move, so a page never comes from a half-ingested
// target copy.
func (s *Slot) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	s.mu.RLock()
	owner, err := s.ownerOfLocked(list)
	if err != nil {
		s.mu.RUnlock()
		return transport.BlockPage{}, err
	}
	srv := s.nodes[owner]
	s.mu.RUnlock()
	if srv == nil {
		return transport.BlockPage{}, fmt.Errorf("dht: owner %s vanished", owner)
	}
	return srv.GetPostingBlocks(ctx, tok, list, from, n)
}

// NumNodes returns the number of physical nodes serving the slot
// (including nodes still draining out).
func (s *Slot) NumNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// Node returns a physical node by name (for instrumentation).
func (s *Slot) Node(name string) (*server.Server, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	srv, ok := s.nodes[name]
	return srv, ok
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
	for name, srv := range s.nodes {
		out[name] = len(srv.ListLengths())
	}
	return out
}
