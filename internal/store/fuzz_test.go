package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/wal"
)

// segmentBytes produces a real log by driving an actual engine, for the
// fuzz seed corpus.
func segmentBytes(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Upsert(1, []posting.EncryptedShare{tagged(1, 9, 1), tagged(2, 3, 2), tagged(3, 9, 1)})
	d.Upsert(2, []posting.EncryptedShare{tagged(4, 0, 1)})
	d.Upsert(1, []posting.EncryptedShare{tagged(2, 3, 7)}) // replace
	d.DeleteIf(1, sortedIDs(d, 1)[0], nil)
	d.DropList(2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzSegmentDecode throws arbitrary byte streams at the Disk engine's
// log replay — the exact code path OpenDisk runs on an untrusted
// on-disk file after a crash. Opening must never panic, must recover a
// state satisfying the store invariants, must truncate the file to a
// prefix no longer than the input, and must be prefix-stable: reopening
// what open left behind reproduces the identical state, and writes
// appended after recovery survive their own reopen. This mirrors
// FuzzJournalDecode for the peer journal. Run with
// `go test -fuzz=FuzzSegmentDecode ./internal/store`.
func FuzzSegmentDecode(f *testing.F) {
	full := segmentBytes(f)
	f.Add(full)
	f.Add(full[:len(full)-3])                                       // torn tail
	f.Add(append(full[:len(full):len(full)], wal.TornFrame(64)...)) // kill mid-append
	f.Add([]byte{})
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, logName)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			// Opening arbitrary bytes may fail, but only cleanly.
			return
		}
		defer d.Close()
		if err := store.CheckInvariants(d); err != nil {
			t.Fatalf("recovered state violates invariants: %v", err)
		}
		if st, err := os.Stat(seg); err != nil {
			t.Fatal(err)
		} else if st.Size() > int64(len(data)) {
			t.Fatalf("open grew the log: %d bytes from %d of input", st.Size(), len(data))
		}
		state := engineState(d)
		if err := d.Reopen(); err != nil {
			t.Fatalf("reopening the truncated log: %v", err)
		}
		if got := engineState(d); got != state {
			t.Fatalf("replay not prefix-stable:\n first: %s\nsecond: %s", state, got)
		}
		// Recovery must leave a log that accepts and persists new writes.
		d.Upsert(merging.ListID(500), []posting.EncryptedShare{tagged(77, 6, 1)})
		state = engineState(d)
		if err := d.Reopen(); err != nil {
			t.Fatalf("reopen after post-recovery append: %v", err)
		}
		if got := engineState(d); got != state {
			t.Fatalf("post-recovery append lost:\n got: %s\nwant: %s", got, state)
		}
	})
}
