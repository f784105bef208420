package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// collect returns a fold that copies every payload into *got.
func collect(got *[][]byte) Fold {
	return func(payload []byte) error {
		*got = append(*got, bytes.Clone(payload))
		return nil
	}
}

// replayFile opens the log at path, checks it is clean, closes it, and
// returns its payloads as strings.
func replayFile(t *testing.T, path string) []string {
	t.Helper()
	var got [][]byte
	l, valid, err := Open(path, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if valid != l.Size() {
		t.Fatalf("%s: valid prefix %d of %d bytes", path, valid, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(got))
	for i, p := range got {
		out[i] = string(p)
	}
	return out
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteAtomicCrashWindows walks the atomic write's two windows. A
// failure before the rename leaves the old file byte-identical and its
// handle appendable, and the next Open removes the temp file; after the
// rename the new file is the log, appendable through the returned
// handle, and the old handle writes only to the unlinked old file.
func TestWriteAtomicCrashWindows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	old, _, err := Open(path, collect(new([][]byte)))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, old, "a", "b")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	if _, err := WriteAtomic(path, func(l *Log) error {
		appendAll(t, l, "x", "y")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write: %v, want %v", err, boom)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed write changed the log: %x -> %x (%v)", before, after, err)
	}
	if _, err := os.Stat(path + tempSuffix); err != nil {
		t.Fatalf("failed write left no temp file, as a crash would: %v", err)
	}
	appendAll(t, old, "c")
	if got := replayFile(t, path); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after a failed write the log replays %q", got)
	}
	if _, err := os.Stat(path + tempSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open kept the temp file: %v", err)
	}

	l, err := WriteAtomic(path, func(l *Log) error {
		appendAll(t, l, "n1", "n2")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayFile(t, path); !reflect.DeepEqual(got, []string{"n1", "n2"}) {
		t.Fatalf("after the rename the log replays %q", got)
	}
	appendAll(t, l, "n3")
	appendAll(t, old, "lost")
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayFile(t, path); !reflect.DeepEqual(got, []string{"n1", "n2", "n3"}) {
		t.Fatalf("appends after the rename: the log replays %q", got)
	}
}

// TestOpenSyncsNewFilesDirectory: Open fsyncs the directory of a log it
// creates, so a power loss cannot take the file with its directory
// entry after frames in it were fsynced; reopening an existing log
// leaves the directory alone.
func TestOpenSyncsNewFilesDirectory(t *testing.T) {
	var synced []string
	syncDir = func(dir string) { synced = append(synced, dir) }
	t.Cleanup(func() { syncDir = SyncDir })
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	for _, want := range [][]string{{dir}, {dir}} {
		l, _, err := Open(path, collect(new([][]byte)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(synced, want) {
			t.Fatalf("directory fsyncs %v, want %v", synced, want)
		}
	}
}
