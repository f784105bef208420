package transport

import "testing"

// TestOpWindow pins the index server's dedup memory: skip on an
// identical payload, re-apply on a changed one, and a FIFO bound per
// caller — one caller's traffic never evicts another's entries.
func TestOpWindow(t *testing.T) {
	w := NewOpWindow()
	op := func(id uint64) OpID { return OpID{ID: id, Stage: StageInsert} }

	if w.Seen("alice", op(1), 11) {
		t.Fatal("empty window has seen an op")
	}
	w.Record("alice", op(1), 11)
	if !w.Seen("alice", op(1), 11) {
		t.Error("recorded op not seen")
	}
	if w.Seen("alice", op(1), 12) {
		t.Error("same op with a different payload must re-apply, not skip")
	}
	if w.Seen("alice", OpID{ID: 1, Stage: StageDelete}, 11) {
		t.Error("the delete stage of an op is not its insert stage")
	}
	if w.Seen("bob", op(1), 11) {
		t.Error("op IDs are per caller")
	}
	w.Record("alice", op(1), 12)
	if !w.Seen("alice", op(1), 12) || w.Seen("alice", op(1), 11) {
		t.Error("re-recording must replace the stored payload checksum")
	}

	// Fill alice's window exactly: op 1 is the oldest and still there.
	w.Record("bob", op(1), 11)
	for id := uint64(2); id <= opWindowCap; id++ {
		w.Record("alice", op(id), 0)
	}
	if !w.Seen("alice", op(1), 12) {
		t.Error("window evicted before reaching its capacity")
	}
	// One more evicts the oldest, and only alice's.
	w.Record("alice", op(opWindowCap+1), 0)
	if w.Seen("alice", op(1), 12) {
		t.Error("oldest op survived past the capacity")
	}
	if !w.Seen("alice", op(2), 0) || !w.Seen("alice", op(opWindowCap+1), 0) {
		t.Error("eviction took more than the oldest op")
	}
	if !w.Seen("bob", op(1), 11) {
		t.Error("one caller's traffic evicted another caller's op")
	}
}
