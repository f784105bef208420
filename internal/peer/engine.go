package peer

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/journal"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/transport"
)

// This file is the peer's mutation engine. Every mutation of the
// central index — IndexDocument, UpdateDocument, DeleteDocument,
// Batch.Flush — runs as one journaled operation:
//
//  1. Build (Peer.build, the only place a mutation is made). The
//     complete encrypted payload (fresh elements with their per-server
//     share values, the superseded elements to delete, and the
//     post-state of the touched documents) is assembled before a single
//     byte goes to a server, so a payload-construction failure leaves
//     the index untouched.
//  2. Begin. With a journal configured, the operation record is
//     persisted and fsynced before the first send; a crash can now
//     never leave servers holding shares the owner cannot re-derive.
//  3. Insert stage. The fresh elements are applied on every server
//     (transport.StageInsert) before anything is deleted — an
//     interrupted update never loses the old postings, it only holds
//     both generations transiently.
//  4. Delete stage. Once every server acknowledged the inserts, the
//     superseded elements are deleted (transport.StageDelete).
//  5. Commit. The local document state is installed and the journal
//     records the operation's end.
//
// Within stage 3 and within stage 4 the servers are sent to concurrently
// (runStage): a stage costs the slowest round trip, not the sum. The
// barrier is between them: no delete is sent before all n insert acks.
// A failed stage leaves any subset of the servers acknowledged, where a
// serial walk left a prefix. Under Config.Sim the walk has width 1: the
// simulator draws its faults per call, so a seed replays, and a kill
// point lies between two sends, only if calls are made one at a time.
//
// Each per-server acknowledgement is journaled, so recovery resumes
// exactly where a crash interrupted, resending only to servers that
// never acknowledged — byte-identical, because the share values come
// from the journaled payload, and exactly-once in effect, because every
// send carries the operation ID the servers deduplicate on.
type mutOp struct {
	op journal.Op
	// insertAcks and deleteAcks mirror the journal's per-server ack
	// bitmaps (bit i = server i acknowledged that stage).
	insertAcks uint64
	deleteAcks uint64
	// journaled reports that the op's current payload has been
	// persisted via Begin (vacuously true without a journal). A failed
	// Begin leaves it false; dispatch re-Begins before the first send,
	// so the durability invariant — payload on disk before any byte
	// reaches a server — survives transient journal failures.
	journaled bool
	// restored marks an op loaded from the journal by peer.New — the
	// recovery path, as opposed to a live mutation retried in-process.
	// Only the simulation hooks read it.
	restored bool
	// Live-commit cache, nil for ops replayed from the journal: the
	// documents this op installs with their refs, parallel slices.
	// applyLocal prefers these over re-deriving the same refs from
	// op.Docs — a large document is thousands of terms, and the
	// mutation just referenced all of them.
	commitDocs []Document
	commitRefs []map[string]elemRef
}

// newOpID draws a non-zero operation ID from the peer's randomness
// (deterministic under an injected seed, like global IDs).
func (p *Peer) newOpID() (uint64, error) {
	rng, release := p.acquireRand()
	defer release()
	var buf [8]byte
	for {
		if _, err := io.ReadFull(rng, buf[:]); err != nil {
			return 0, fmt.Errorf("peer: generating op ID: %w", err)
		}
		if id := binary.LittleEndian.Uint64(buf[:]); id != 0 {
			return id, nil
		}
	}
}

// buildElems folds staged elements and their per-server share rows into
// the journal's element-major payload form: Ys[i] is server i's share.
// All Ys slices are windows of one flat backing array — a large
// document is thousands of elements, and one allocation each would
// dominate the mutation's allocation budget.
func buildElems(st *staged, shares [][]posting.EncryptedShare) []journal.Elem {
	n := len(shares)
	flat := make([]uint64, n*len(st.elems))
	elems := make([]journal.Elem, len(st.elems))
	for e := range st.elems {
		ys := flat[e*n : (e+1)*n : (e+1)*n]
		for i := range shares {
			ys[i] = shares[i][e].Y.Uint64()
		}
		elems[e] = journal.Elem{
			List:  uint32(st.lids[e]),
			GID:   uint64(st.gids[e]),
			Group: st.groups[e],
			Ys:    ys,
		}
	}
	return elems
}

// docState captures a document's post-mutation state for the journal,
// refs in sorted term order so the journal bytes are deterministic.
func docState(doc Document, refs map[string]elemRef) journal.DocState {
	ds := journal.DocState{
		ID: doc.ID, Name: doc.Name, Content: doc.Content, Group: uint32(doc.Group),
		Refs: make([]journal.Ref, 0, len(refs)),
	}
	terms := make([]string, 0, len(refs))
	for term := range refs {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	for _, term := range terms {
		ref := refs[term]
		ds.Refs = append(ds.Refs, journal.Ref{
			Term: term, List: uint32(ref.list), GID: uint64(ref.gid), TF: ref.tf,
		})
	}
	return ds
}

// insertOpsForServer materializes server i's insert ops under the given
// shuffle permutation. The share values are exactly the journaled ones —
// every retry resends byte-identical bytes, which k-of-n reconstruction
// across servers reached by different attempts depends on — while the
// order is the attempt's own whole-payload shuffle. Share values are
// re-checked against the field because the payload may come from a
// replayed journal.
func insertOpsForServer(op *journal.Op, i int, perm []int) ([]transport.InsertOp, error) {
	ops := make([]transport.InsertOp, len(op.Elems))
	for j, src := range perm {
		el := &op.Elems[src]
		if i >= len(el.Ys) {
			return nil, fmt.Errorf("journaled element carries %d shares, need server %d", len(el.Ys), i)
		}
		y, err := field.Check(el.Ys[i])
		if err != nil {
			return nil, fmt.Errorf("journaled share value: %w", err)
		}
		ops[j] = transport.InsertOp{
			List: merging.ListID(el.List),
			Share: posting.EncryptedShare{
				GlobalID: posting.GlobalID(el.GID),
				Group:    el.Group,
				Y:        y,
			},
		}
	}
	return ops, nil
}

// deleteOpsOf materializes an op's delete stage in sorted order.
func deleteOpsOf(op *journal.Op) []transport.DeleteOp {
	ops := make([]transport.DeleteOp, len(op.Dels))
	for i, d := range op.Dels {
		ops[i] = transport.DeleteOp{List: merging.ListID(d.List), ID: posting.GlobalID(d.GID)}
	}
	sortDeleteOps(ops)
	return ops
}

// beginOp enqueues a mutation and persists its operation record. The op
// is enqueued first: if the Begin fails (disk full, fsync error), the
// op stays pending with journaled=false and the caller's error is
// retryable — a later drain re-Begins before dispatching. Silently
// dropping the op here would turn a transient journal fault into data
// loss. Callers hold pmu.
func (p *Peer) beginOp(m *mutOp) error {
	p.pending = append(p.pending, m)
	return p.journalBegin(m)
}

// journalBegin persists (or re-persists) an op's current payload and
// marks it journaled. Callers hold pmu.
func (p *Peer) journalBegin(m *mutOp) error {
	if p.jn == nil {
		m.journaled = true
		return nil
	}
	if err := p.jn.Begin(m.op); err != nil {
		m.journaled = false
		return fmt.Errorf("peer %s: journaling op %d: %w", p.cfg.Name, m.op.ID, err)
	}
	m.journaled = true
	return nil
}

// ackJournal records one server's stage acknowledgement (buffered; a
// lost ack merely causes an idempotent resend).
func (p *Peer) ackJournal(opID uint64, stage uint8, server int) error {
	if p.jn == nil {
		return nil
	}
	if err := p.jn.Ack(opID, stage, server); err != nil {
		return fmt.Errorf("peer %s: journaling ack for op %d: %w", p.cfg.Name, opID, err)
	}
	return nil
}

// syncJournal flushes buffered acks on error paths, best effort: if the
// sync itself fails, the acks are resent on retry anyway.
func (p *Peer) syncJournal() {
	if p.jn != nil {
		_ = p.jn.Sync()
	}
}

// dispatch drives one mutation through its stages, skipping servers
// that already acknowledged. On error the op stays pending: the caller
// (or a later mutation, or Recover) retries from the recorded acks.
// Callers hold pmu.
func (p *Peer) dispatch(tok auth.Token, m *mutOp) error {
	if !m.journaled {
		if err := p.journalBegin(m); err != nil {
			return err
		}
	}
	all := uint64(1)<<len(p.cfg.Servers) - 1
	if len(m.op.Elems) > 0 && m.insertAcks != all {
		rng, release := p.acquireRand()
		perm, err := randomPerm(rng, len(m.op.Elems)) // a fresh whole-payload shuffle
		release()
		if err != nil {
			return fmt.Errorf("peer %s: op %d shuffle: %w", p.cfg.Name, m.op.ID, err)
		}
		oid := transport.OpID{ID: m.op.ID, Stage: transport.StageInsert}
		err = p.runStage(m, "insert", journal.StageInsert, &m.insertAcks, func(i int) error {
			ops, err := insertOpsForServer(&m.op, i, perm)
			if err != nil {
				return err
			}
			return p.cfg.Servers[i].Apply(context.Background(), tok, oid, ops, nil)
		})
		if err != nil {
			return err
		}
	}
	// The delete stage starts only once every server holds the fresh
	// elements: an interruption above leaves both generations present
	// (transiently) rather than the old one partially destroyed.
	if m.restored && p.cfg.Sim != nil && p.cfg.Sim.SkipDeleteReplay {
		// Simulation-only bug shape (see SimHooks): recovery pretends
		// the delete stage already ran, orphaning superseded elements.
		m.deleteAcks = all
	}
	if len(m.op.Dels) > 0 && m.deleteAcks != all {
		dels := deleteOpsOf(&m.op)
		oid := transport.OpID{ID: m.op.ID, Stage: transport.StageDelete}
		return p.runStage(m, "delete", journal.StageDelete, &m.deleteAcks, func(i int) error {
			return p.cfg.Servers[i].Apply(context.Background(), tok, oid, nil, dels)
		})
	}
	return nil
}

// runStage sends one stage of m to every server whose bit in acks is
// clear, all at once (one at a time under Config.Sim), and returns when
// every call it started has. The last send of a window runs on the
// calling goroutine, so a walk of width 1 starts none. Only the calling
// goroutine touches acks and the journal: it records the servers that
// answered, also when another failed, and returns the first error.
func (p *Peer) runStage(m *mutOp, name string, stage uint8, acks *uint64, send func(server int) error) error {
	n := len(p.cfg.Servers)
	width := n - bits.OnesCount64(*acks)
	if p.cfg.Sim != nil {
		width = 1
	}
	errs := make([]error, n)
	returned := make(chan int, n) // a server's index once errs holds its outcome; room for all
	inflight, firstErr := 0, error(nil)
	collect := func() {
		i := <-returned
		inflight--
		err := errs[i]
		if err != nil {
			err = fmt.Errorf("peer %s: op %d %s stage: %w", p.cfg.Name, m.op.ID, name, err)
		} else {
			*acks |= 1 << i
			err = p.ackJournal(m.op.ID, stage, i)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < n && firstErr == nil; i++ {
		if *acks&(1<<i) != 0 {
			continue
		}
		if h := p.cfg.Sim; h != nil && h.BeforeStage != nil { // the simulation's kill point
			if firstErr = h.BeforeStage(m.op.ID, stage, i); firstErr != nil {
				break
			}
		}
		call := func() { errs[i] = send(i); returned <- i }
		if inflight++; inflight < width {
			go call()
			continue
		}
		call()
		collect()
	}
	for inflight > 0 {
		collect()
	}
	if firstErr != nil {
		p.syncJournal()
	}
	return firstErr
}

// applyLocal installs an op's local post-state: touched documents with
// their refs, then removals. Replaying completed ops in journal order
// reproduces exactly this sequence of installs. Live ops commit from
// their cached state; replayed ops decode it from the journaled
// document states.
func (p *Peer) applyLocal(m *mutOp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.commitDocs != nil {
		for i, doc := range m.commitDocs {
			p.docs[doc.ID] = doc
			p.refs[doc.ID] = m.commitRefs[i]
		}
	} else {
		for _, ds := range m.op.Docs {
			refs := make(map[string]elemRef, len(ds.Refs))
			for _, r := range ds.Refs {
				refs[r.Term] = elemRef{
					list: merging.ListID(r.List),
					gid:  posting.GlobalID(r.GID),
					tf:   r.TF,
				}
			}
			p.docs[ds.ID] = Document{
				ID: ds.ID, Name: ds.Name, Content: ds.Content, Group: auth.GroupID(ds.Group),
			}
			p.refs[ds.ID] = refs
		}
	}
	for _, id := range m.op.Removed {
		delete(p.docs, id)
		delete(p.refs, id)
	}
}

// drainPending drives every pending mutation to completion in order.
// Every mutation starts by draining, so a failed operation blocks later
// ones instead of being silently overtaken (its inserted elements would
// be orphaned and its document state would fork). Callers hold pmu.
func (p *Peer) drainPending(tok auth.Token) error {
	for len(p.pending) > 0 {
		m := p.pending[0]
		if err := p.dispatch(tok, m); err != nil {
			return err
		}
		p.applyLocal(m)
		if p.jn != nil {
			if err := p.jn.End(m.op.ID); err != nil {
				// Local state is committed and every server acknowledged;
				// if the End record is lost the op replays to completion
				// idempotently. Still surface the journal failure.
				return fmt.Errorf("peer %s: journaling end of op %d: %w", p.cfg.Name, m.op.ID, err)
			}
		}
		p.pending = p.pending[1:]
	}
	return nil
}

// Recover drives every journaled in-flight mutation to convergence —
// the peer-side half of crash recovery (peer.New already rebuilt the
// local document state from the journal's completed operations). It
// resumes from the recorded per-server acknowledgements: servers that
// acknowledged before the crash are skipped, the rest receive the
// journaled payload byte-identically, and the servers deduplicate
// redeliveries by operation ID, so recovery converges to exactly-once
// effect no matter how often it is interrupted and repeated. It returns
// how many operations were completed. Mutations also drain pending
// operations themselves, so calling Recover explicitly is optional —
// but it is the natural first call after reopening a peer.
func (p *Peer) Recover(tok auth.Token) (int, error) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	before := len(p.pending)
	err := p.drainPending(tok)
	return before - len(p.pending), err
}

// PendingOps reports how many journaled mutations await completion.
func (p *Peer) PendingOps() int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return len(p.pending)
}

// PendingOpIDs returns the operation IDs of the mutations awaiting
// completion, in dispatch order. The model checker uses the IDs to tell
// "the previous operation is still pending" apart from "the previous
// operation completed and a new one is pending" after a failed call.
func (p *Peer) PendingOpIDs() []uint64 {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	out := make([]uint64, len(p.pending))
	for i, m := range p.pending {
		out[i] = m.op.ID
	}
	return out
}

// ElementGIDs returns, for every committed element reference the peer
// tracks, the hosting document: gid -> docID. At a quiescent point (no
// pending operations) this is exactly the element set every index
// server must hold — the model checker's zero-orphans invariant.
func (p *Peer) ElementGIDs() map[posting.GlobalID]uint32 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[posting.GlobalID]uint32)
	for id, refs := range p.refs {
		for _, ref := range refs {
			out[ref.gid] = id
		}
	}
	return out
}

// Close flushes and closes the peer's journal, if any. The peer stays
// usable for reads; further mutations fail at the journal.
func (p *Peer) Close() error {
	if p.jn == nil {
		return nil
	}
	return p.jn.Close()
}

// CompactJournal rewrites the journal to one completed snapshot
// operation per hosted document plus the in-flight operations verbatim.
// A long-lived peer's journal otherwise grows with its whole mutation
// history; compaction bounds recovery time by the index size, exactly
// as the disk store's segment compaction does. The rewrite is atomic
// (temp file + rename): a crash mid-compaction leaves either journal
// intact.
func (p *Peer) CompactJournal() error {
	if p.jn == nil {
		return nil
	}
	p.pmu.Lock()
	defer p.pmu.Unlock()

	p.mu.RLock()
	ids := make([]uint32, 0, len(p.docs))
	for id := range p.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	states := make([]*journal.State, 0, len(ids)+len(p.pending))
	for _, id := range ids {
		opID, err := p.newOpID()
		if err != nil {
			p.mu.RUnlock()
			return err
		}
		states = append(states, &journal.State{
			Op: journal.Op{
				ID:      opID,
				Kind:    journal.KindIndex,
				Servers: len(p.cfg.Servers),
				Docs:    []journal.DocState{docState(p.docs[id], p.refs[id])},
			},
			Done: true,
		})
	}
	p.mu.RUnlock()
	for _, m := range p.pending {
		states = append(states, &journal.State{
			Op: m.op, InsertAcks: m.insertAcks, DeleteAcks: m.deleteAcks,
		})
	}
	return p.jn.Rewrite(states)
}
