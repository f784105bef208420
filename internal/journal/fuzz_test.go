package journal

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"

	"zerber/internal/wal"
)

// journalBytes encodes a sequence of well-formed records as one journal
// byte stream, for the fuzz seed corpus.
func journalBytes(t testing.TB, ops []Op, acks [][3]uint64, ends []uint64) []byte {
	t.Helper()
	var recs [][]byte
	for _, op := range ops {
		rec, err := beginRecord(op)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	for _, a := range acks {
		rec := ackRecord(a[0], uint8(a[1]), int(a[2]))
		recs = append(recs, rec[:])
	}
	for _, id := range ends {
		rec := endRecord(id)
		recs = append(recs, rec[:])
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := wal.AppendFrame(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// foldStream folds a journal byte stream the way Open folds the file —
// wal.Replay into replayState.fold — and reports the valid prefix.
func foldStream(r io.Reader) ([]*State, int64) {
	var rs replayState
	valid, err := wal.Replay(r, rs.fold)
	if err != nil {
		panic(err) // in-memory readers do not fail
	}
	return rs.order, valid
}

// FuzzJournalDecode throws arbitrary byte streams at the journal replay
// fold — the exact code path peer.New runs on an untrusted on-disk file
// after a crash. It must never panic, must never claim more valid bytes
// than the input holds, and must be prefix-stable: re-folding exactly
// the valid prefix must reproduce the same states (so truncating a torn
// tail, as Open does, never changes the recovered state). Seeds mirror
// real records the way internal/wal's FuzzReadFrame seeds real frames. Run
// with `go test -fuzz=FuzzJournalDecode ./internal/journal`.
func FuzzJournalDecode(f *testing.F) {
	realOp := Op{
		ID: 7, Kind: KindUpdate, Servers: 3,
		Docs: []DocState{{ID: 1, Content: "martha imclone", Group: 1,
			Refs: []Ref{{Term: "martha", List: 2, GID: 99, TF: 1}}}},
		Elems: []Elem{{List: 2, GID: 99, Group: 1, Ys: []uint64{3, 5, 7}}},
		Dels:  []Del{{List: 1, GID: 42}},
	}
	full := journalBytes(f, []Op{realOp}, [][3]uint64{{7, uint64(StageInsert), 0}, {7, uint64(StageInsert), 2}}, []uint64{7})
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	f.Add(journalBytes(f, []Op{{ID: 1, Kind: KindDelete, Servers: 2, Removed: []uint32{9}, Dels: []Del{{List: 0, GID: 1}}}}, nil, nil))
	f.Add([]byte{})
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		states, valid := foldStream(bytes.NewReader(data))
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(data))
		}
		for _, st := range states {
			if st == nil {
				t.Fatal("nil state folded out of the journal")
			}
		}
		restates, revalid := foldStream(bytes.NewReader(data[:valid]))
		if revalid != valid {
			t.Fatalf("refolding the valid prefix claims %d bytes, first pass %d", revalid, valid)
		}
		if !reflect.DeepEqual(states, restates) {
			t.Fatalf("refolding the valid prefix diverged:\n first: %+v\nsecond: %+v", states, restates)
		}
	})
}

// TestFoldStreamMatchesOpen pins foldStream (the fuzzed entry point) to
// Open's replay on a real on-disk journal, so the fuzz target keeps
// testing the code path recovery actually uses.
func TestFoldStreamMatchesOpen(t *testing.T) {
	path := t.TempDir() + "/j.journal"
	jn, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	op := Op{ID: 3, Kind: KindIndex, Servers: 2, Elems: []Elem{{List: 1, GID: 8, Group: 1, Ys: []uint64{1, 2}}}}
	if err := jn.Begin(op); err != nil {
		t.Fatal(err)
	}
	if err := jn.Ack(3, StageInsert, 1); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn2, states, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	raw := journalBytes(t, []Op{op}, [][3]uint64{{3, uint64(StageInsert), 1}}, nil)
	folded, valid := foldStream(bufio.NewReader(bytes.NewReader(raw)))
	if valid != int64(len(raw)) {
		t.Fatalf("foldStream accepted %d of %d bytes", valid, len(raw))
	}
	if !reflect.DeepEqual(states, folded) {
		t.Fatalf("foldStream and Open disagree:\n open: %+v\n fold: %+v", states, folded)
	}
}
