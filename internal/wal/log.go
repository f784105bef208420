package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// tempSuffix names the file WriteAtomic builds a log in.
const tempSuffix = ".tmp"

// Fold receives each intact frame's payload. An error rejects the frame:
// replay stops and the frame is not part of the valid prefix, as if its
// checksum had failed.
type Fold func(payload []byte) error

// Replay reads frames from r and passes each to fold, stopping at a
// clean end, at a torn or corrupt frame, or at a frame fold rejects. It
// returns the length of the valid prefix, the frames fold accepted; the
// error is only for a read that failed for another reason than the
// input's contents.
func Replay(r io.Reader, fold Fold) (valid int64, err error) {
	br := bufio.NewReader(r)
	for {
		payload, err := ReadFrame(br)
		if err == io.EOF || errors.Is(err, ErrTornFrame) || errors.Is(err, ErrBadRecord) {
			return valid, nil
		}
		if err != nil {
			return valid, err
		}
		if fold(payload) != nil {
			return valid, nil
		}
		valid += FrameSize(payload)
	}
}

// Log is an append handle on one log file. Appends are buffered until
// Flush or Sync. A Log is not safe for concurrent use.
type Log struct {
	f    *os.File
	w    *bufio.Writer
	size int64 // bytes in the file, buffered ones included
}

// Open opens the log at path, creating it if absent and removing the
// temp file a failed or interrupted WriteAtomic left beside it; replays
// the file into fold; and returns a handle that appends at the end of
// the file. A file it creates has its directory fsynced, so a power
// loss cannot take the file, and the frames later fsynced into it, with
// its directory entry. valid is the length of the prefix replay
// accepted: a file longer than that ends in a torn or corrupt tail,
// which the caller cuts with Truncate, or refuses.
func Open(path string, fold Fold) (l *Log, valid int64, err error) {
	os.Remove(path + tempSuffix) // best effort: a leftover only wastes space
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err == nil {
			syncDir(filepath.Dir(path))
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err == nil {
		valid, err = Replay(io.NewSectionReader(f, 0, st.Size()), fold)
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: replaying %s: %w", path, err)
	}
	return &Log{f: f, w: bufio.NewWriter(f), size: st.Size()}, valid, nil
}

// WriteAtomic replaces the log at path with the frames write appends to
// the handle it is given: they go to a temp file, which is flushed,
// fsynced and renamed over path, and the directory is fsynced so a power
// loss cannot bring the old file back. It returns that handle, now
// appending to the log at path; the caller closes its handle on the old
// file. Until the rename the old file is untouched, so if write or
// anything before the rename fails, the old file and its handle stay the
// log. The temp file is left behind then, as a crash would leave it, for
// the next Open to remove or the next WriteAtomic to overwrite.
func WriteAtomic(path string, write func(*Log) error) (*Log, error) {
	f, err := os.OpenFile(path+tempSuffix, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, w: bufio.NewWriter(f)}
	err = write(l)
	if err == nil {
		err = l.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	syncDir(filepath.Dir(path))
	return l, nil
}

// Append buffers one frame carrying payload.
func (l *Log) Append(payload []byte) error {
	if err := AppendFrame(l.w, payload); err != nil {
		return err
	}
	l.size += FrameSize(payload)
	return nil
}

// Flush hands the buffered frames to the operating system: a process
// kill no longer loses them, a power loss may.
func (l *Log) Flush() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Sync flushes and fsyncs: what it covers survives a power loss.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Close flushes and closes the file, without an fsync.
func (l *Log) Close() error {
	ferr := l.Flush()
	if err := l.f.Close(); err != nil && ferr == nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return ferr
}

// Size is the log's length in bytes, buffered frames included.
func (l *Log) Size() int64 { return l.size }

// Truncate is the torn-tail cut: it shortens the file to n bytes, the
// valid prefix Open reported, so appends continue from a consistent
// point. It is a no-op on a file no longer than n; call it before the
// first append.
func (l *Log) Truncate(n int64) error {
	if n >= l.size {
		return nil
	}
	if err := l.f.Truncate(n); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	l.size = n
	return nil
}

// syncDir is SyncDir, replaceable so tests can count the calls.
var syncDir = SyncDir

// SyncDir fsyncs a directory so the entry of a file just created in it
// or renamed into it is durable — without it a power loss after a
// temp+rename commit can bring the old file back. Best effort: some
// filesystems reject directory fsync.
func SyncDir(dir string) {
	df, err := os.Open(dir)
	if err != nil {
		return
	}
	df.Sync()
	df.Close()
}
