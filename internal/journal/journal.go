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
// Records ride the variable-length CRC framing of package wal
// (wal.AppendFrame/ReadFrame): a torn or corrupt tail — the normal
// result of a crash mid-append — ends replay cleanly and is truncated so
// subsequent appends continue from a consistent point.
//
// Durability contract: Begin is synced before the first network send, so
// a crash can lose acks (re-sending is idempotent) but never the payload
// of an operation that may have partially reached the servers. Acks are
// buffered and synced with End, or explicitly via Sync on error paths.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	f      *os.File
	w      *bufio.Writer
	path   string
	closed bool
}

// Open reads the journal at path (creating it if absent), folds its
// records into per-operation states, truncates any torn or corrupt tail,
// and opens the file for appending. States come back in first-Begin
// order: replaying their Done ops in order reproduces the peer's local
// document state, and the rest are the in-flight ops to resume.
func Open(path string) (*Journal, []*State, error) {
	states, validBytes, err := replay(path)
	if err != nil {
		return nil, nil, err
	}
	if info, err := os.Stat(path); err == nil && info.Size() > validBytes {
		if err := os.Truncate(path, validBytes); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, states, nil
}

// replay folds the journal file into operation states and reports how
// many bytes of the file were valid.
func replay(path string) ([]*State, int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	states, validBytes := foldStream(bufio.NewReader(f))
	return states, validBytes, nil
}

// foldStream folds a journal byte stream into operation states and
// reports how many bytes formed the valid prefix. It never fails: a
// torn, truncated, or corrupt frame — the normal result of a crash
// mid-append, or arbitrary fuzzer input — simply ends the prefix, and
// everything before it is the consistent journal.
func foldStream(r io.Reader) ([]*State, int64) {
	br := bufio.NewReader(r)
	byID := make(map[uint64]*State)
	var order []*State
	var validBytes int64
	for {
		payload, err := wal.ReadFrame(br)
		if err != nil {
			// io.EOF is the clean end; anything else is a torn tail or
			// corruption. Either way everything before this frame is
			// the consistent prefix.
			break
		}
		if decodeErr := fold(payload, byID, &order); decodeErr != nil {
			break
		}
		validBytes += wal.FrameSize(payload)
	}
	return order, validBytes
}

// fold applies one record payload to the replay state.
func fold(payload []byte, byID map[uint64]*State, order *[]*State) error {
	if len(payload) == 0 {
		return errors.New("journal: empty record")
	}
	body := payload[1:]
	switch payload[0] {
	case recBegin:
		var op Op
		if err := json.Unmarshal(body, &op); err != nil {
			return fmt.Errorf("journal: op record: %w", err)
		}
		if st, ok := byID[op.ID]; ok {
			// A re-Begin replaces the payload (a batch extended between
			// retries) and restarts the insert stage: earlier acks cover
			// a smaller payload, so they no longer count.
			st.Op = op
			st.InsertAcks, st.DeleteAcks = 0, 0
			return nil
		}
		st := &State{Op: op}
		byID[op.ID] = st
		*order = append(*order, st)
	case recAck:
		if len(body) != 11 {
			return fmt.Errorf("journal: ack record of %d bytes", len(body))
		}
		id := binary.LittleEndian.Uint64(body[:8])
		stage := body[8]
		srv := binary.LittleEndian.Uint16(body[9:11])
		st, ok := byID[id]
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
		st, ok := byID[id]
		if !ok {
			return fmt.Errorf("journal: end for unknown op %d", id)
		}
		st.Done = true
	default:
		return fmt.Errorf("journal: unknown record kind %d", payload[0])
	}
	return nil
}

func (j *Journal) append(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return wal.AppendFrame(j.w, payload)
}

// Begin journals an operation record and syncs it to stable storage: the
// payload must be durable before the first byte goes to a server, or a
// crash could leave servers holding shares the owner can no longer
// re-derive. Re-beginning an op ID replaces its payload and clears its
// acks (see Open).
func (j *Journal) Begin(op Op) error {
	body, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("journal: encoding op %d: %w", op.ID, err)
	}
	if err := j.append(append([]byte{recBegin}, body...)); err != nil {
		return err
	}
	return j.Sync()
}

// Ack journals one server's acknowledgement of one stage. Acks are
// buffered: losing one to a crash merely causes an idempotent resend.
func (j *Journal) Ack(opID uint64, stage uint8, server int) error {
	if server < 0 || server >= MaxServers {
		return fmt.Errorf("journal: server index %d out of range", server)
	}
	var body [12]byte
	body[0] = recAck
	binary.LittleEndian.PutUint64(body[1:9], opID)
	body[9] = stage
	binary.LittleEndian.PutUint16(body[10:12], uint16(server))
	return j.append(body[:])
}

// End journals an operation's completion and syncs.
func (j *Journal) End(opID uint64) error {
	var body [9]byte
	body[0] = recEnd
	binary.LittleEndian.PutUint64(body[1:9], opID)
	if err := j.append(body[:]); err != nil {
		return err
	}
	return j.Sync()
}

// Sync flushes buffered records and fsyncs the file.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush on close: %w", err)
	}
	return j.f.Close()
}

// Rewrite replaces the journal's contents with exactly the given states
// — the peer-side twin of the disk store's segment compaction. A
// long-lived peer accumulates one op record per historical mutation;
// rewriting with one completed snapshot op per live document plus the
// in-flight ops bounds recovery time by the index size instead of its
// history. The new contents go to a temporary file that atomically
// replaces the journal, so a crash mid-rewrite leaves either the old or
// the new journal intact; the directory is fsynced after the rename so
// a power loss cannot bring the old journal back.
func (j *Journal) Rewrite(states []*State) error {
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening compaction file: %w", err)
	}
	w := bufio.NewWriter(f)
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	for _, st := range states {
		body, err := json.Marshal(st.Op)
		if err != nil {
			return fail(fmt.Errorf("journal: encoding op %d: %w", st.Op.ID, err))
		}
		if err := wal.AppendFrame(w, append([]byte{recBegin}, body...)); err != nil {
			return fail(err)
		}
		for srv := 0; srv < MaxServers; srv++ {
			for _, stage := range []struct {
				acks  uint64
				stage uint8
			}{{st.InsertAcks, StageInsert}, {st.DeleteAcks, StageDelete}} {
				if stage.acks&(1<<srv) == 0 {
					continue
				}
				var rec [12]byte
				rec[0] = recAck
				binary.LittleEndian.PutUint64(rec[1:9], st.Op.ID)
				rec[9] = stage.stage
				binary.LittleEndian.PutUint16(rec[10:12], uint16(srv))
				if err := wal.AppendFrame(w, rec[:]); err != nil {
					return fail(err)
				}
			}
		}
		if st.Done {
			var rec [9]byte
			rec[0] = recEnd
			binary.LittleEndian.PutUint64(rec[1:9], st.Op.ID)
			if err := wal.AppendFrame(w, rec[:]); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("journal: flushing compaction file: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("journal: syncing compaction file: %w", err))
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		os.Remove(tmp)
		return ErrClosed
	}
	if err := j.w.Flush(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: flush before swap: %w", err)
	}
	if err := j.f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: closing old journal: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("journal: swapping journals: %w", err)
	}
	wal.SyncDir(filepath.Dir(j.path))
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening compacted journal: %w", err)
	}
	j.f = nf
	j.w = bufio.NewWriter(nf)
	return nil
}
