package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"zerber/internal/merging"
	"zerber/internal/wal"
)

// Compaction for the Disk engine. A log under churn accumulates garbage
// — replaced upserts, delete and drop records, reset frames — that
// replay must read but the index no longer references. Compaction
// rewrites the live index as one snapshot segment using the same
// temp+rename pattern as journal.Rewrite:
//
//  1. Write a reset frame followed by every live list (in its exact
//     stored order, so replay reproduces the bucket-major layout
//     element for element) to seg-<N+1>.zseg.tmp, where N is the
//     current active segment id; fsync.
//  2. Rename the temp file to seg-<N+1>.zseg.
//  3. Delete the stale segments and make the snapshot the active
//     segment.
//
// Every crash window is safe: before the rename, open ignores and
// removes the temp file; after it, replaying the stale segments
// followed by the snapshot's reset frame converges on the snapshot
// alone, and partially deleted stale segments only shrink that prefix.
//
// Auto-compaction triggers on the mutation path once the log exceeds
// CompactMinBytes and less than half of it is live.

// compactChunk bounds the records per snapshot frame so one frame stays
// far under wal.MaxFramePayload regardless of list length.
const compactChunk = 4096

// Compact rewrites the log as a single snapshot segment of the live
// index. It runs under the engine's write lock; concurrent readers and
// writers simply wait.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

// maybeCompact runs on the mutation path (lock held). Failure here is
// fail-fast like any other mutation-path I/O error.
func (d *Disk) maybeCompact() {
	if d.hooks != nil && d.hooks.CrashCompaction != 0 {
		return
	}
	if d.totalBytes < d.opt.CompactMinBytes {
		return
	}
	if d.liveBytes()*2 >= d.totalBytes {
		return
	}
	if err := d.compactLocked(); err != nil {
		panic(fmt.Sprintf("store: auto-compaction: %v", err))
	}
}

func (d *Disk) compactLocked() error {
	if err := d.w.Flush(); err != nil {
		return fmt.Errorf("store: compaction flush: %w", err)
	}
	snapID := d.activeID + 1
	tmpPath := d.segPath(snapID) + ".tmp"
	f, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compaction temp: %w", err)
	}
	w := bufio.NewWriter(f)
	var cur int64
	if err := wal.AppendFrame(w, []byte{segOpReset}); err != nil {
		f.Close()
		return fmt.Errorf("store: compaction reset frame: %w", err)
	}
	cur += wal.FrameSize([]byte{segOpReset})

	lids := make([]merging.ListID, 0, len(d.lists))
	for lid := range d.lists {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	newOffs := make(map[merging.ListID][]uint32, len(lids))
	for _, lid := range lids {
		dl := d.lists[lid]
		shares := dl.shares
		if shares == nil {
			shares, err = d.readEntries(dl, lid, 0, len(dl.entries))
			if err != nil {
				f.Close()
				return fmt.Errorf("store: compaction read: %w", err)
			}
		}
		offs := make([]uint32, len(shares))
		for start := 0; start < len(shares); start += compactChunk {
			chunk := shares[start:min(start+compactChunk, len(shares))]
			payload := make([]byte, 0, len(chunk)*segUpsertSize)
			for i, sh := range chunk {
				offs[start+i] = uint32(cur + 4 + int64(i)*segUpsertSize)
				payload = appendUpsertRec(payload, lid, sh)
			}
			if err := wal.AppendFrame(w, payload); err != nil {
				f.Close()
				return fmt.Errorf("store: compaction frame: %w", err)
			}
			cur += wal.FrameSize(payload)
		}
		newOffs[lid] = offs
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: compaction flush: %w", err)
	}
	if d.hooks != nil && d.hooks.CrashCompaction == 1 {
		f.Close()
		return fmt.Errorf("compaction stopped before rename: %w", ErrSimulatedCrash)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compaction sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compaction close: %w", err)
	}
	if err := os.Rename(tmpPath, d.segPath(snapID)); err != nil {
		return fmt.Errorf("store: compaction rename: %w", err)
	}
	wal.SyncDir(d.dir)
	if d.hooks != nil && d.hooks.CrashCompaction == 2 {
		// The snapshot is durable but the stale segments remain and the
		// in-memory state still points at them; the engine must be
		// Reopened before any further mutation, like after a real crash.
		return fmt.Errorf("compaction stopped before stale-segment cleanup: %w", ErrSimulatedCrash)
	}

	// Commit: from here on, failure leaves the in-memory index pointing
	// at files we are destroying, so errors are fail-fast.
	for id, old := range d.segs {
		old.Close()
		if err := os.Remove(d.segPath(id)); err != nil {
			panic(fmt.Sprintf("store: compaction cleanup: %v", err))
		}
	}
	nf, err := os.OpenFile(d.segPath(snapID), os.O_RDWR, 0o644)
	if err != nil {
		panic(fmt.Sprintf("store: reopening snapshot: %v", err))
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		panic(fmt.Sprintf("store: reopening snapshot: %v", err))
	}
	d.segs = map[uint32]*os.File{snapID: nf}
	d.active = nf
	d.activeID = snapID
	d.activeSize = cur
	d.totalBytes = cur
	d.w = bufio.NewWriter(nf)
	d.dirty = false // the snapshot was fsynced whole
	for lid, offs := range newOffs {
		dl := d.lists[lid]
		for i := range dl.entries {
			dl.entries[i].seg = snapID
			dl.entries[i].off = offs[i]
		}
	}
	d.compactions++
	return nil
}
