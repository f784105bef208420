// Package journal persists a document owner's in-flight index mutations
// so they survive crashes and are exactly-once in effect.
//
// Zerber peers mutate the central index with multi-server, multi-stage
// operations: an update must insert the changed elements under fresh
// global IDs on every server and only then delete the old ones, or a
// partial failure orphans shares on the servers that succeeded (the
// workflow-net view: a mutation is a transition with explicit
// intermediate states, not an ad-hoc call sequence). The journal is the
// redo log of those transitions. Every mutation becomes one operation
// record — unique op ID, the staged encrypted payload (per-server share
// values, so a retry resends byte-identical bytes), the elements to
// delete, and the post-state of the touched documents — followed by one
// ack record per server per stage and a final end record. Replaying the
// journal therefore recovers both halves of a peer: completed operations
// rebuild the local document/reference state, and unfinished operations
// come back with their ack bitmaps so recovery resumes exactly where the
// crash interrupted, skipping servers that already acknowledged.
//
// The journal is a record schema over package wal's log, which owns the
// file: replay, the truncation of a torn or corrupt tail (the normal
// result of a crash mid-append), appending, and the atomic rewrite. This
// package owns what a record means: Op and State, one encoder per record
// kind, and fold, which applies one record to the replayed states.
//
// Durability contract: Begin is synced before the first network send, so
// a crash can lose acks (re-sending is idempotent) but never the payload
// of an operation that may have partially reached the servers. Acks are
// buffered and synced with End, or explicitly via Sync on error paths.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"zerber/internal/wal"
)

// Kind classifies an operation by its stage shape.
type Kind uint8

// The mutation kinds of the peer's narrow write interface.
const (
	// KindIndex inserts fresh elements only (IndexDocument, Batch.Flush).
	KindIndex Kind = 1
	// KindUpdate inserts fresh elements, then deletes the superseded
	// ones — the two-stage protocol that never loses the old postings.
	KindUpdate Kind = 2
	// KindDelete deletes elements only (DeleteDocument).
	KindDelete Kind = 3
)

// Elem is one staged posting element with its per-server share values:
// Ys[i] is the share destined for server i, in the peer's server order.
// Persisting the share values (not the plaintext element) is what makes
// retries byte-identical; the journal never holds more than the servers
// collectively see anyway.
type Elem struct {
	List  uint32   `json:"list"`
	GID   uint64   `json:"gid"`
	Group uint32   `json:"group"`
	Ys    []uint64 `json:"ys"`
}

// Del addresses one element to delete.
type Del struct {
	List uint32 `json:"list"`
	GID  uint64 `json:"gid"`
}

// Ref is one term's central-index reference in a document's post-state.
type Ref struct {
	Term string `json:"term"`
	List uint32 `json:"list"`
	GID  uint64 `json:"gid"`
	TF   uint16 `json:"tf"`
}

// DocState is the post-state of one document touched by an operation:
// everything the peer needs to reinstall the document locally (content
// for snippets and term counts, refs for future updates and deletes).
type DocState struct {
	ID      uint32 `json:"id"`
	Name    string `json:"name,omitempty"`
	Content string `json:"content"`
	Group   uint32 `json:"group"`
	Refs    []Ref  `json:"refs"`
}

// Op is one journaled mutation.
type Op struct {
	// ID is the mutation's unique operation ID; the transport stages
	// derived from it make redelivery a server-side no-op.
	ID   uint64 `json:"id"`
	Kind Kind   `json:"kind"`
	// Servers is the server count the payload was split for; reopening
	// under a different cluster shape is a configuration error.
	Servers int `json:"servers"`
	// Docs carries the post-state of the documents this op installs.
	Docs []DocState `json:"docs,omitempty"`
	// Removed lists document IDs this op deletes.
	Removed []uint32 `json:"removed,omitempty"`
	// Elems is the insert-stage payload.
	Elems []Elem `json:"elems,omitempty"`
	// Dels is the delete-stage payload.
	Dels []Del `json:"dels,omitempty"`
}

// State is one operation folded out of the journal: the (latest) op
// record plus its acknowledged progress.
type State struct {
	Op Op
	// InsertAcks and DeleteAcks are per-server bitmaps (bit i = server i
	// acknowledged that stage). MaxServers bounds the width.
	InsertAcks uint64
	DeleteAcks uint64
	// Done reports that the op completed and its local post-state was
	// committed.
	Done bool
}

// MaxServers is the widest cluster a journal can track (ack bitmaps are
// one machine word).
const MaxServers = 64

// Record kinds inside a frame payload.
const (
	recBegin byte = 1 // followed by JSON(Op)
	recAck   byte = 2 // followed by opID(8) stage(1) server(2)
	recEnd   byte = 3 // followed by opID(8)
)

// Stages of an op, as recorded in ack records.
const (
	StageInsert uint8 = 1
	StageDelete uint8 = 2
)

// ErrClosed reports appends to a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an append-only mutation journal. It is safe for concurrent
// use, though peers serialize mutations anyway.
type Journal struct {
	mu     sync.Mutex
	log    *wal.Log
	path   string
	closed bool
}

// Open reads the journal at path (creating it if absent), folds its
// records into per-operation states, truncates any torn or corrupt tail,
// and opens the file for appending. States come back in first-Begin
// order: replaying their Done ops in order reproduces the peer's local
// document state, and the rest are the in-flight ops to resume.
func Open(path string) (*Journal, []*State, error) {
	var rs replayState
	l, valid, err := wal.Open(path, rs.fold)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := l.Truncate(valid); err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{log: l, path: path}, rs.order, nil
}

// replayState is the fold of a journal's records into operation states.
type replayState struct {
	byID  map[uint64]*State
	order []*State
}

// fold applies one record payload to the replay state. A record it
// rejects ends the valid prefix like a torn frame does.
func (rs *replayState) fold(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("journal: empty record")
	}
	if rs.byID == nil {
		rs.byID = make(map[uint64]*State)
	}
	body := payload[1:]
	switch payload[0] {
	case recBegin:
		var op Op
		if err := json.Unmarshal(body, &op); err != nil {
			return fmt.Errorf("journal: op record: %w", err)
		}
		if st, ok := rs.byID[op.ID]; ok {
			// A re-Begin is dispatch retrying a Begin that failed (its
			// record may still have reached the file), with the same
			// payload. No send follows a failed Begin, so no ack precedes
			// the retry; the fold still takes the later payload and
			// restarts the insert stage, so an ack never outlives the
			// payload it acknowledged.
			st.Op = op
			st.InsertAcks, st.DeleteAcks = 0, 0
			return nil
		}
		st := &State{Op: op}
		rs.byID[op.ID] = st
		rs.order = append(rs.order, st)
	case recAck:
		if len(body) != 11 {
			return fmt.Errorf("journal: ack record of %d bytes", len(body))
		}
		id := binary.LittleEndian.Uint64(body[:8])
		stage := body[8]
		srv := binary.LittleEndian.Uint16(body[9:11])
		st, ok := rs.byID[id]
		if !ok || srv >= MaxServers {
			return fmt.Errorf("journal: ack for unknown op %d / server %d", id, srv)
		}
		switch stage {
		case StageInsert:
			st.InsertAcks |= 1 << srv
		case StageDelete:
			st.DeleteAcks |= 1 << srv
		default:
			return fmt.Errorf("journal: ack with unknown stage %d", stage)
		}
	case recEnd:
		if len(body) != 8 {
			return fmt.Errorf("journal: end record of %d bytes", len(body))
		}
		id := binary.LittleEndian.Uint64(body[:8])
		st, ok := rs.byID[id]
		if !ok {
			return fmt.Errorf("journal: end for unknown op %d", id)
		}
		st.Done = true
	default:
		return fmt.Errorf("journal: unknown record kind %d", payload[0])
	}
	return nil
}

// beginRecord encodes an op record.
func beginRecord(op Op) ([]byte, error) {
	body, err := json.Marshal(op)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding op %d: %w", op.ID, err)
	}
	return append([]byte{recBegin}, body...), nil
}

// ackRecord encodes one server's acknowledgement of one stage.
func ackRecord(opID uint64, stage uint8, server int) [12]byte {
	var rec [12]byte
	rec[0] = recAck
	binary.LittleEndian.PutUint64(rec[1:9], opID)
	rec[9] = stage
	binary.LittleEndian.PutUint16(rec[10:12], uint16(server))
	return rec
}

// endRecord encodes an op's completion.
func endRecord(opID uint64) [9]byte {
	var rec [9]byte
	rec[0] = recEnd
	binary.LittleEndian.PutUint64(rec[1:9], opID)
	return rec
}

// appendStates appends the records that replay to states: per state its
// op, its acks server by server, and its end if it is done.
func appendStates(l *wal.Log, states []*State) error {
	var err error
	put := func(rec []byte) {
		if err == nil {
			err = l.Append(rec)
		}
	}
	for _, st := range states {
		rec, berr := beginRecord(st.Op)
		if berr != nil {
			return berr
		}
		put(rec)
		for srv := 0; srv < MaxServers; srv++ {
			if st.InsertAcks&(1<<srv) != 0 {
				ack := ackRecord(st.Op.ID, StageInsert, srv)
				put(ack[:])
			}
			if st.DeleteAcks&(1<<srv) != 0 {
				ack := ackRecord(st.Op.ID, StageDelete, srv)
				put(ack[:])
			}
		}
		if st.Done {
			end := endRecord(st.Op.ID)
			put(end[:])
		}
	}
	return err
}

// append journals rec, if any; with sync it also fsyncs it and every
// record buffered before it.
func (j *Journal) append(rec []byte, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	var err error
	if rec != nil {
		err = j.log.Append(rec)
	}
	if err == nil && sync {
		err = j.log.Sync()
	}
	return err
}

// Begin journals an operation record and syncs it to stable storage: the
// payload must be durable before the first byte goes to a server, or a
// crash could leave servers holding shares the owner can no longer
// re-derive. Re-beginning an op ID replaces its payload and clears its
// acks (see Open).
func (j *Journal) Begin(op Op) error {
	rec, err := beginRecord(op)
	if err != nil {
		return err
	}
	return j.append(rec, true)
}

// Ack journals one server's acknowledgement of one stage. Acks are
// buffered: losing one to a crash merely causes an idempotent resend.
func (j *Journal) Ack(opID uint64, stage uint8, server int) error {
	if server < 0 || server >= MaxServers {
		return fmt.Errorf("journal: server index %d out of range", server)
	}
	rec := ackRecord(opID, stage, server)
	return j.append(rec[:], false)
}

// End journals an operation's completion and syncs.
func (j *Journal) End(opID uint64) error {
	rec := endRecord(opID)
	return j.append(rec[:], true)
}

// Sync flushes buffered records and fsyncs the file.
func (j *Journal) Sync() error { return j.append(nil, true) }

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.log.Close()
}

// Rewrite replaces the journal's contents with exactly the given states
// — the peer-side twin of the disk store's log compaction. A
// long-lived peer accumulates one op record per historical mutation;
// rewriting with one completed snapshot op per live document plus the
// in-flight ops bounds recovery time by the index size instead of its
// history. The rewrite is wal.WriteAtomic's: a crash leaves either the
// old or the new journal intact, and a failure leaves the journal
// appending to the old file.
func (j *Journal) Rewrite(states []*State) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	l, err := wal.WriteAtomic(j.path, func(l *wal.Log) error { return appendStates(l, states) })
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	// The old file is unlinked and every record of it that still matters
	// is in the new one, so its close error changes nothing.
	_ = j.log.Close()
	j.log = l
	return nil
}
