package dht

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
)

// This file is the slot's online migration engine: an epoch-stamped
// two-phase handoff that moves one merged posting list between nodes
// while the slot keeps serving reads and journaled mutations.
//
// Phase 1 (copy): the source stays authoritative. The engine snapshots
// the list under the routing lock and streams it to the target in
// chunks through a TransferSink, with a per-transfer timeout and
// bounded exponential retry. Mutations that land mid-copy are applied
// to the source as usual and their global IDs recorded in the move's
// dirty set; drain rounds reconcile the target with the source's
// current state of exactly those IDs, which is idempotent and
// condition-free (upsert what exists, remove what does not).
//
// Phase 2 (cutover): once a drain round finds the dirty set empty, the
// engine re-checks it under the exclusive routing lock — every serving
// call holds the read lock across its routing decision and dispatch,
// so an empty dirty set under the write lock proves no mutation can be
// in flight between the two replicas — and atomically flips ownership.
// Only after the flip does the source drop its copy.
//
// Failure at any point before the flip aborts only that list's move:
// the target is told to discard the partial list, the source retains
// authority through a routing override, and the slot keeps serving.
// A failed cleanup is remembered and retried by the next Rebalance, so
// the slot degrades to "some lists still on their old owners" rather
// than wedging or losing data.
//
// Every delivery carries (epoch, seq): the epoch identifies the
// membership operation that started the move and fences deliveries
// from earlier, aborted attempts; the sequence number totally orders
// one move's stream so duplicated or arbitrarily delayed redeliveries
// are acknowledged without being re-applied.

// Epoch identifies one membership operation (join, leave, rebalance)
// of a slot. Transfer deliveries stamped with an older epoch than the
// list's current move are rejected, so a retried move can never be
// corrupted by stragglers from an aborted attempt.
type Epoch uint64

// ErrStaleTransfer reports a transfer delivery that does not match an
// active move (wrong epoch, no move in progress, or a sequence gap).
// It is permanent: the sender must not retry.
var ErrStaleTransfer = errors.New("dht: stale transfer delivery")

// TransferSink is the node-to-node migration wire. The default sink
// delivers in-process into the slot's own Deliver* endpoints; tests
// and the model checker interpose sinks that drop, duplicate, delay,
// and reorder deliveries like any other network.
//
// Migration is a trusted server-to-server protocol below the client
// API: shares stay encrypted throughout and no tokens are involved.
type TransferSink interface {
	// Ingest upserts a batch of shares into target's copy of the list.
	Ingest(ctx context.Context, target string, ep Epoch, seq uint64, lid merging.ListID, shares []posting.EncryptedShare) error
	// Remove deletes the given global IDs from target's copy of the
	// list (absent IDs are fine — removal reconciles state).
	Remove(ctx context.Context, target string, ep Epoch, seq uint64, lid merging.ListID, gids []posting.GlobalID) error
	// Abort tells target to discard its partial copy of the list.
	Abort(ctx context.Context, target string, ep Epoch, lid merging.ListID) error
}

// MigrationPolicy tunes the copy phase. The retry shape mirrors the
// binary wire client's reconnect backoff: exponential from BackoffMin,
// clamped at BackoffMax.
type MigrationPolicy struct {
	// ChunkSize is the number of shares per Ingest delivery (default
	// 256).
	ChunkSize int
	// Timeout bounds one delivery attempt (default 2s).
	Timeout time.Duration
	// Attempts is the total number of tries per delivery before the
	// move aborts (default 4).
	Attempts int
	// BackoffMin/BackoffMax shape the sleep between retries (defaults
	// 25ms and 2s). BackoffMin 0 retries immediately.
	BackoffMin, BackoffMax time.Duration
}

// DefaultMigrationPolicy returns the production policy.
func DefaultMigrationPolicy() MigrationPolicy {
	return MigrationPolicy{
		ChunkSize:  256,
		Timeout:    2 * time.Second,
		Attempts:   4,
		BackoffMin: 25 * time.Millisecond,
		BackoffMax: 2 * time.Second,
	}
}

func (p MigrationPolicy) normalized() MigrationPolicy {
	def := DefaultMigrationPolicy()
	if p.ChunkSize <= 0 {
		p.ChunkSize = def.ChunkSize
	}
	if p.Timeout <= 0 {
		p.Timeout = def.Timeout
	}
	if p.Attempts <= 0 {
		p.Attempts = def.Attempts
	}
	return p
}

// SimHooks re-enable known-bad behavior for the model checker, proving
// its churn checks are not vacuous. Must be nil outside the checker.
type SimHooks struct {
	// LoseCutover performs the buggy ancestor of the two-phase handoff:
	// the source drops its list but the routing flip is "lost", leaving
	// authority pointing at a node that no longer has the data.
	LoseCutover bool
}

// listMove is one in-flight copy phase. While it exists in Slot.moves,
// the source remains authoritative for the list.
type listMove struct {
	src, dst string
	epoch    Epoch

	// jmu guards dirty (source side) and lastSeq (target side). The
	// mutation path applies to the source and records dirty IDs under
	// jmu, so drain rounds observe a consistent order.
	jmu     sync.Mutex
	dirty   map[posting.GlobalID]struct{}
	lastSeq uint64

	// seq is the source-side delivery counter; only the (serialized)
	// migration engine touches it.
	seq uint64
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

// abortRec is a target cleanup that could not be delivered when a move
// aborted; Rebalance retries it before touching the list again.
type abortRec struct {
	target string
	epoch  Epoch
}

// localSink delivers transfers in-process — the default wire when all
// of a slot's nodes live in one process (tests, the soak).
type localSink struct{ s *Slot }

func (l localSink) Ingest(_ context.Context, target string, ep Epoch, seq uint64, lid merging.ListID, shares []posting.EncryptedShare) error {
	return l.s.DeliverIngest(target, ep, seq, lid, shares)
}

func (l localSink) Remove(_ context.Context, target string, ep Epoch, seq uint64, lid merging.ListID, gids []posting.GlobalID) error {
	return l.s.DeliverRemove(target, ep, seq, lid, gids)
}

func (l localSink) Abort(_ context.Context, target string, ep Epoch, lid merging.ListID) error {
	return l.s.DeliverAbort(target, ep, lid)
}

// SetTransferSink replaces the migration wire (nil restores the
// in-process default). Call before membership operations.
func (s *Slot) SetTransferSink(sink TransferSink) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if sink == nil {
		sink = localSink{s}
	}
	s.sink = sink
}

// SetMigrationPolicy replaces the copy-phase tuning. Zero fields take
// their defaults; a zero BackoffMin retries immediately.
func (s *Slot) SetMigrationPolicy(p MigrationPolicy) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.pol = p.normalized()
}

// SetSimHooks installs model-checker hooks. Must be nil outside tests.
func (s *Slot) SetSimHooks(h *SimHooks) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.hooks = h
}

// DeliverIngest is the target-side endpoint of TransferSink.Ingest. It
// validates that the delivery matches the list's active move and its
// epoch, then upserts the shares. Deliveries at or below the last
// applied sequence number were already applied and are acknowledged
// without effect; anything else out of order is rejected as stale.
func (s *Slot) DeliverIngest(target string, ep Epoch, seq uint64, lid merging.ListID, shares []posting.EncryptedShare) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mv := s.moves[lid]
	if mv == nil || mv.dst != target || mv.epoch != ep {
		return fmt.Errorf("ingest of list %d on %s (epoch %d): %w", lid, target, ep, ErrStaleTransfer)
	}
	srv := s.nodes[target]
	if srv == nil {
		return fmt.Errorf("dht: migration target %s vanished", target)
	}
	mv.jmu.Lock()
	defer mv.jmu.Unlock()
	if seq <= mv.lastSeq {
		return nil // duplicate of an already-applied delivery: ack, don't re-apply
	}
	if seq != mv.lastSeq+1 {
		return fmt.Errorf("ingest of list %d on %s: got seq %d, want %d: %w",
			lid, target, seq, mv.lastSeq+1, ErrStaleTransfer)
	}
	srv.Store().Upsert(lid, shares)
	mv.lastSeq = seq
	return nil
}

// DeliverRemove is the target-side endpoint of TransferSink.Remove.
func (s *Slot) DeliverRemove(target string, ep Epoch, seq uint64, lid merging.ListID, gids []posting.GlobalID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mv := s.moves[lid]
	if mv == nil || mv.dst != target || mv.epoch != ep {
		return fmt.Errorf("remove on list %d on %s (epoch %d): %w", lid, target, ep, ErrStaleTransfer)
	}
	srv := s.nodes[target]
	if srv == nil {
		return fmt.Errorf("dht: migration target %s vanished", target)
	}
	mv.jmu.Lock()
	defer mv.jmu.Unlock()
	if seq <= mv.lastSeq {
		return nil
	}
	if seq != mv.lastSeq+1 {
		return fmt.Errorf("remove on list %d on %s: got seq %d, want %d: %w",
			lid, target, seq, mv.lastSeq+1, ErrStaleTransfer)
	}
	for _, gid := range gids {
		srv.Store().DeleteIf(lid, gid, nil)
	}
	mv.lastSeq = seq
	return nil
}

// DeliverAbort is the target-side endpoint of TransferSink.Abort: the
// target discards its partial copy of the list. It refuses to touch a
// list the target authoritatively owns (a delayed abort from an old,
// since-completed move must not destroy live data) and rejects aborts
// whose epoch does not match an active move of the list.
func (s *Slot) DeliverAbort(target string, ep Epoch, lid merging.ListID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if mv := s.moves[lid]; mv != nil && (mv.epoch != ep || mv.dst != target) {
		return fmt.Errorf("abort of list %d on %s (epoch %d): %w", lid, target, ep, ErrStaleTransfer)
	}
	if owner, err := s.ownerOfLocked(lid); err == nil && owner == target {
		return fmt.Errorf("abort of list %d: %s owns the list: %w", lid, target, ErrStaleTransfer)
	}
	srv := s.nodes[target]
	if srv == nil {
		return nil // target gone: nothing left to clean
	}
	srv.Store().DropList(lid)
	return nil
}

// transfer runs one delivery with the policy's timeout and bounded
// exponential retry. ErrStaleTransfer is permanent and not retried.
func (s *Slot) transfer(desc string, f func(ctx context.Context) error) error {
	pol := s.pol
	backoff := pol.BackoffMin
	var last error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 && backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > pol.BackoffMax {
				backoff = pol.BackoffMax
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), pol.Timeout)
		err := f(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrStaleTransfer) {
			return err
		}
		last = err
	}
	return fmt.Errorf("%s failed after %d attempts: %w", desc, pol.Attempts, last)
}

// runMove executes the two-phase handoff of one list. The caller holds
// migMu, so at most one move is in flight per slot and membership
// cannot change underneath it.
func (s *Slot) runMove(lid merging.ListID, src, dst string, ep Epoch) error {
	s.mu.Lock()
	srcSrv, dstSrv := s.nodes[src], s.nodes[dst]
	if srcSrv == nil || dstSrv == nil {
		s.mu.Unlock()
		return fmt.Errorf("dht: move of list %d %s -> %s: node missing", lid, src, dst)
	}
	mv := &listMove{src: src, dst: dst, epoch: ep}
	s.moves[lid] = mv
	delete(s.stale, lid) // the move record overrides routing; restored on abort
	snapshot := srcSrv.Store().Scan(lid, nil)
	s.mu.Unlock()

	// Copy phase: stream the snapshot in chunks. The source keeps
	// serving; concurrent mutations dual-apply via the dirty set.
	for off := 0; off < len(snapshot); off += s.pol.ChunkSize {
		end := off + s.pol.ChunkSize
		if end > len(snapshot) {
			end = len(snapshot)
		}
		chunk := snapshot[off:end]
		mv.seq++
		seq := mv.seq
		err := s.transfer(fmt.Sprintf("dht: copying list %d to %s", lid, dst), func(ctx context.Context) error {
			return s.sink.Ingest(ctx, dst, ep, seq, lid, chunk)
		})
		if err != nil {
			return s.abortMove(lid, mv, err)
		}
	}

	// Drain + cutover. Lock-free drain rounds shrink the window; the
	// flip happens only when the dirty set is provably empty under the
	// exclusive routing lock.
	for round := 0; ; round++ {
		if round > 64 {
			return s.abortMove(lid, mv, errors.New("dirty set never drained under sustained writes"))
		}
		if err := s.drainRound(mv, srcSrv, lid); err != nil {
			return s.abortMove(lid, mv, err)
		}
		s.mu.Lock()
		mv.jmu.Lock()
		dirty := len(mv.dirty)
		mv.jmu.Unlock()
		if dirty > 0 {
			s.mu.Unlock()
			continue // lost the race to a concurrent mutation; drain again
		}
		if owner, err := s.ring.OwnerOfList(lid); err != nil || owner != dst {
			s.mu.Unlock()
			return s.abortMove(lid, mv, fmt.Errorf("ring owner changed under the move (now %q, err %v)", owner, err))
		}
		if s.hooks != nil && s.hooks.LoseCutover {
			// Bug shape for the model checker: the data moved, but the
			// authority flip is lost — routing still names the source,
			// which is about to drop its copy.
			delete(s.moves, lid)
			s.stale[lid] = src
			s.mu.Unlock()
			srcSrv.Store().DropList(lid)
			return nil
		}
		delete(s.moves, lid)
		delete(s.stale, lid)
		s.mu.Unlock()
		// The flip is done: reads and writes now route to dst. Dropping
		// the source's copy after the flip is safe — it is no longer
		// addressed by anything.
		srcSrv.Store().DropList(lid)
		return nil
	}
}

// drainRound reconciles the target with the source's current state of
// every ID mutated since the last round.
func (s *Slot) drainRound(mv *listMove, srcSrv *server.Server, lid merging.ListID) error {
	dirty := mv.takeDirty()
	if len(dirty) == 0 {
		return nil
	}
	current := make(map[posting.GlobalID]posting.EncryptedShare)
	for _, sh := range srcSrv.Store().Scan(lid, nil) {
		current[sh.GlobalID] = sh
	}
	var upserts []posting.EncryptedShare
	var removes []posting.GlobalID
	for _, gid := range dirty {
		if sh, ok := current[gid]; ok {
			upserts = append(upserts, sh)
		} else {
			removes = append(removes, gid)
		}
	}
	if len(upserts) > 0 {
		mv.seq++
		seq := mv.seq
		if err := s.transfer(fmt.Sprintf("dht: draining list %d to %s", lid, mv.dst), func(ctx context.Context) error {
			return s.sink.Ingest(ctx, mv.dst, mv.epoch, seq, lid, upserts)
		}); err != nil {
			return err
		}
	}
	if len(removes) > 0 {
		mv.seq++
		seq := mv.seq
		if err := s.transfer(fmt.Sprintf("dht: draining deletes of list %d to %s", lid, mv.dst), func(ctx context.Context) error {
			return s.sink.Remove(ctx, mv.dst, mv.epoch, seq, lid, removes)
		}); err != nil {
			return err
		}
	}
	return nil
}

// abortMove cancels a move before cutover: the source retains
// authority via a routing override and the target is told to discard
// its partial copy. A failed cleanup is recorded for Rebalance.
func (s *Slot) abortMove(lid merging.ListID, mv *listMove, cause error) error {
	s.mu.Lock()
	delete(s.moves, lid)
	s.stale[lid] = mv.src
	s.mu.Unlock()
	if aerr := s.transfer(fmt.Sprintf("dht: cleaning list %d off %s", lid, mv.dst), func(ctx context.Context) error {
		return s.sink.Abort(ctx, mv.dst, mv.epoch, lid)
	}); aerr != nil && !errors.Is(aerr, ErrStaleTransfer) {
		s.mu.Lock()
		s.aborts[lid] = abortRec{target: mv.dst, epoch: mv.epoch}
		s.mu.Unlock()
		return fmt.Errorf("dht: move of list %d to %s aborted (%w); target cleanup pending: %v", lid, mv.dst, cause, aerr)
	}
	return fmt.Errorf("dht: move of list %d to %s aborted, %s retains authority: %w", lid, mv.dst, mv.src, cause)
}

// Rebalance retries whatever previous membership operations left
// behind: undelivered target cleanups, lists still parked on their old
// owners after an aborted move, and draining nodes that still hold
// data. It is safe to call at any time and under live traffic; call it
// until Pending reports zero to fully converge after transient faults.
func (s *Slot) Rebalance() error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.mu.Lock()
	s.epoch++
	ep := s.epoch
	s.mu.Unlock()
	return s.rebalanceLocked(ep)
}

// rebalanceLocked drives every misplaced list toward its ring owner,
// continuing past per-list failures and aggregating them with
// errors.Join. Caller holds migMu.
func (s *Slot) rebalanceLocked(ep Epoch) error {
	var errs []error

	// Drop overrides whose lists no longer exist (every element deleted
	// while the move was parked): there is nothing left to migrate and
	// the ring owner serves the empty list correctly. Lists with an
	// undelivered target cleanup are exempt — until the leftover copy
	// is confirmed gone, the override must keep routing away from it.
	s.mu.Lock()
	for lid, holder := range s.stale {
		if _, pend := s.aborts[lid]; pend {
			continue
		}
		srv := s.nodes[holder]
		if srv == nil {
			delete(s.stale, lid)
			continue
		}
		if _, n, _ := srv.Store().ScanRange(lid, 0, 0, nil); n == 0 {
			delete(s.stale, lid)
		}
	}
	s.mu.Unlock()

	// Unfinished target cleanups first: a list with a partial copy
	// stranded on some node must not start a new move until the
	// leftover is gone (it could otherwise alias a fresh transfer).
	s.mu.RLock()
	pending := make(map[merging.ListID]abortRec, len(s.aborts))
	for lid, rec := range s.aborts {
		pending[lid] = rec
	}
	s.mu.RUnlock()
	for _, lid := range sortedLids(pending) {
		rec := pending[lid]
		if err := s.transfer(fmt.Sprintf("dht: cleaning list %d off %s", lid, rec.target), func(ctx context.Context) error {
			return s.sink.Abort(ctx, rec.target, rec.epoch, lid)
		}); err != nil && !errors.Is(err, ErrStaleTransfer) {
			errs = append(errs, fmt.Errorf("dht: pending cleanup of list %d on %s: %w", lid, rec.target, err))
			continue
		}
		s.mu.Lock()
		delete(s.aborts, lid)
		s.mu.Unlock()
	}

	// Plan moves for every list not on its ring owner, skipping lists
	// whose cleanup is still pending.
	type movePlan struct {
		lid      merging.ListID
		src, dst string
	}
	var plans []movePlan
	s.mu.RLock()
	for name, srv := range s.nodes {
		for lid := range srv.Store().ListLengths() {
			owner, err := s.ownerOfLocked(lid)
			if err != nil || owner != name {
				continue // not this node's authoritative data (cleanup leftover)
			}
			if _, dirty := s.aborts[lid]; dirty {
				continue
			}
			want, err := s.ring.OwnerOfList(lid)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if want != name {
				plans = append(plans, movePlan{lid: lid, src: name, dst: want})
			}
		}
	}
	s.mu.RUnlock()
	sort.Slice(plans, func(i, j int) bool { return plans[i].lid < plans[j].lid })
	for _, p := range plans {
		if err := s.runMove(p.lid, p.src, p.dst, ep); err != nil {
			errs = append(errs, err)
		}
	}

	// Fully drained leaving nodes are gone for good.
	s.mu.Lock()
	for name := range s.draining {
		if s.nodes[name].Store().TotalElements() == 0 {
			delete(s.nodes, name)
			delete(s.draining, name)
		}
	}
	s.mu.Unlock()
	return errors.Join(errs...)
}

// Pending reports how much reconciliation work a future Rebalance has:
// lists still routed to their pre-move owners, undelivered target
// cleanups, and leaving nodes that still hold data. Zero means the
// slot's physical placement matches its ring exactly.
func (s *Slot) Pending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.stale) + len(s.aborts) + len(s.draining)
}

// Epoch returns the slot's current membership epoch.
func (s *Slot) Epoch() Epoch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

func sortedLids(m map[merging.ListID]abortRec) []merging.ListID {
	out := make([]merging.ListID, 0, len(m))
	for lid := range m {
		out = append(out, lid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
