package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func sampleOp(id uint64, kind Kind) Op {
	return Op{
		ID:      id,
		Kind:    kind,
		Servers: 3,
		Docs: []DocState{{
			ID: 7, Name: "memo.txt", Content: "martha imclone", Group: 1,
			Refs: []Ref{
				{Term: "martha", List: 2, GID: 100 + id, TF: 1},
				{Term: "imclone", List: 3, GID: 200 + id, TF: 1},
			},
		}},
		Elems: []Elem{
			{List: 2, GID: 100 + id, Group: 1, Ys: []uint64{11, 22, 33}},
			{List: 3, GID: 200 + id, Group: 1, Ys: []uint64{44, 55, 66}},
		},
		Dels: []Del{{List: 2, GID: 9}},
	}
}

func open(t *testing.T, path string) (*Journal, []*State) {
	t.Helper()
	j, states, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, states
}

func TestJournalLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer.journal")
	j, states := open(t, path)
	if len(states) != 0 {
		t.Fatalf("fresh journal replayed %d ops", len(states))
	}

	op := sampleOp(42, KindUpdate)
	if err := j.Begin(op); err != nil {
		t.Fatal(err)
	}
	if err := j.Ack(42, StageInsert, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Ack(42, StageInsert, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, states := open(t, path)
	defer j2.Close()
	if len(states) != 1 {
		t.Fatalf("replayed %d ops, want 1", len(states))
	}
	st := states[0]
	if st.Done {
		t.Error("op without End replayed as done")
	}
	if st.InsertAcks != 0b101 || st.DeleteAcks != 0 {
		t.Errorf("acks = %b/%b, want 101/0", st.InsertAcks, st.DeleteAcks)
	}
	if len(st.Op.Elems) != 2 || st.Op.Elems[0].Ys[2] != 33 {
		t.Errorf("payload not recovered: %+v", st.Op.Elems)
	}
	if len(st.Op.Docs) != 1 || st.Op.Docs[0].Content != "martha imclone" {
		t.Errorf("doc state not recovered: %+v", st.Op.Docs)
	}

	// Finish the op through the reopened journal.
	for _, srv := range []int{0, 1, 2} {
		if err := j2.Ack(42, StageDelete, srv); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Ack(42, StageInsert, 1); err != nil {
		t.Fatal(err)
	}
	if err := j2.End(42); err != nil {
		t.Fatal(err)
	}

	j3, states := open(t, path)
	defer j3.Close()
	if len(states) != 1 || !states[0].Done {
		t.Fatalf("completed op not replayed as done: %+v", states)
	}
}

func TestJournalReBeginResetsAcks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer.journal")
	j, _ := open(t, path)
	op := sampleOp(1, KindIndex)
	if err := j.Begin(op); err != nil {
		t.Fatal(err)
	}
	if err := j.Ack(1, StageInsert, 0); err != nil {
		t.Fatal(err)
	}
	// Extend the payload (a batch grown between retries) and re-Begin.
	op.Elems = append(op.Elems, Elem{List: 5, GID: 999, Group: 1, Ys: []uint64{1, 2, 3}})
	if err := j.Begin(op); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, states := open(t, path)
	defer j2.Close()
	if len(states) != 1 {
		t.Fatalf("replayed %d ops, want 1", len(states))
	}
	if states[0].InsertAcks != 0 {
		t.Errorf("re-Begin must clear stale acks, got %b", states[0].InsertAcks)
	}
	if len(states[0].Op.Elems) != 3 {
		t.Errorf("extended payload lost: %d elems", len(states[0].Op.Elems))
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer.journal")
	j, _ := open(t, path)
	if err := j.Begin(sampleOp(1, KindIndex)); err != nil {
		t.Fatal(err)
	}
	if err := j.End(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: write half a frame of garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	j2, states := open(t, path)
	if len(states) != 1 || !states[0].Done {
		t.Fatalf("replay after torn tail: %+v", states)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appending after truncation must yield a consistent journal.
	if err := j2.Begin(sampleOp(2, KindDelete)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, states := open(t, path)
	defer j3.Close()
	if len(states) != 2 {
		t.Fatalf("replayed %d ops after post-truncation append, want 2", len(states))
	}
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestJournalFormatPinned pins the journal's bytes: a fixed sequence of
// every record kind, the Rewrite of it, and appends to the rewritten file
// must hash to what the journal wrote before the log primitive moved into
// package wal.
func TestJournalFormatPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer.journal")
	j, _ := open(t, path)
	defer j.Close()
	for _, step := range []struct {
		name, want string
		run        func() error
	}{
		{"appended", "dec3344186db83cefa321730d2c6ba3e0ff7d1f467f2ae30f3b6429385d62c42", func() error {
			for _, err := range []error{
				j.Begin(sampleOp(1, KindIndex)), j.Ack(1, StageInsert, 2), j.Ack(1, StageInsert, 0), j.End(1),
				j.Begin(sampleOp(2, KindUpdate)), j.Ack(2, StageInsert, 1), j.Ack(2, StageDelete, 1),
			} {
				if err != nil {
					return err
				}
			}
			return j.Sync()
		}},
		{"rewritten", "2284f3b0a46a77ea8f3b21ebdc6d71f39fe27226c1a8c500a5e36e2cf43ad594", func() error {
			return j.Rewrite([]*State{
				{Op: Op{ID: 9, Kind: KindIndex, Servers: 3, Docs: []DocState{{ID: 7, Content: "live", Group: 1}}}, Done: true},
				{Op: sampleOp(2, KindUpdate), InsertAcks: 0b101, DeleteAcks: 0b110},
			})
		}},
		{"appended after rewrite", "a0d4f77fbfa9d94e42c7edd1da37984fbe32abe4d67e97abf16a31a4d295b508", func() error {
			if err := j.Ack(2, StageInsert, 1); err != nil {
				return err
			}
			return j.End(2)
		}},
	} {
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		if got := fileDigest(t, path); got != step.want {
			t.Errorf("%s: journal hashes to %s, want %s", step.name, got, step.want)
		}
	}
}

// TestJournalRewriteFailureKeepsJournal is the regression test of a
// Rewrite that fails at its rename: it must report the failure and leave
// the journal appending to the old file, and the next open removes the
// temp file it left.
func TestJournalRewriteFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peer.journal")
	j, _ := open(t, path)
	if err := j.Begin(sampleOp(1, KindIndex)); err != nil {
		t.Fatal(err)
	}
	// Move the live file aside (the open handle follows it) and put a
	// non-empty directory at the journal's path, which no rename replaces.
	aside := filepath.Join(dir, "aside")
	if err := os.Rename(path, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([]*State{{Op: sampleOp(1, KindIndex), Done: true}}); err == nil {
		t.Fatal("Rewrite over a directory reported success")
	}
	for i, err := range []error{j.Begin(sampleOp(2, KindUpdate)), j.Ack(2, StageInsert, 0), j.End(2), j.End(1), j.Close()} {
		if err != nil {
			t.Fatalf("call %d after the failed Rewrite: %v", i, err)
		}
	}

	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, path); err != nil {
		t.Fatal(err)
	}
	j2, states := open(t, path)
	defer j2.Close()
	if len(states) != 2 || !states[0].Done || !states[1].Done || states[1].InsertAcks != 1 {
		t.Fatalf("old file after the failed Rewrite replayed %+v", states)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("reopen left %d files beside the journal: %v", len(entries)-1, entries)
	}
}

func TestJournalRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer.journal")
	j, _ := open(t, path)
	// A long history: many completed ops, one pending with partial acks.
	for id := uint64(1); id <= 20; id++ {
		if err := j.Begin(sampleOp(id, KindIndex)); err != nil {
			t.Fatal(err)
		}
		if err := j.End(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Begin(sampleOp(99, KindUpdate)); err != nil {
		t.Fatal(err)
	}
	if err := j.Ack(99, StageInsert, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	big, _ := os.Stat(path)

	// Compact to one snapshot plus the pending op.
	snapshot := &State{Op: Op{ID: 1000, Kind: KindIndex, Servers: 3,
		Docs: []DocState{{ID: 7, Content: "live state", Group: 1}}}, Done: true}
	pending := &State{Op: sampleOp(99, KindUpdate), InsertAcks: 0b010}
	if err := j.Rewrite([]*State{snapshot, pending}); err != nil {
		t.Fatal(err)
	}
	small, _ := os.Stat(path)
	if small.Size() >= big.Size() {
		t.Errorf("rewrite did not shrink the journal: %d -> %d", big.Size(), small.Size())
	}
	// The rewritten journal must stay appendable and replay correctly.
	if err := j.Ack(99, StageInsert, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, states := open(t, path)
	defer j2.Close()
	if len(states) != 2 {
		t.Fatalf("replayed %d ops, want 2", len(states))
	}
	if !states[0].Done || states[0].Op.Docs[0].Content != "live state" {
		t.Errorf("snapshot op mangled: %+v", states[0])
	}
	if states[1].Done || states[1].InsertAcks != 0b011 {
		t.Errorf("pending op mangled: done=%v acks=%b", states[1].Done, states[1].InsertAcks)
	}
}
