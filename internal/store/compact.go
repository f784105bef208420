package store

import (
	"fmt"
	"os"
	"sort"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/wal"
)

// Compaction for the Disk engine. A log under churn accumulates garbage
// — replaced upserts, delete and drop records, reset frames — that
// replay must read but the table no longer holds. Compaction writes the
// table as one snapshot segment:
//
//  1. wal.WriteAtomic writes a reset frame followed by every live list,
//     each in its stored order (the canonical one), to seg-<N+1>.zseg,
//     where N is the current active segment id, through a temp file,
//     fsync and rename.
//  2. Delete the stale segments; the handle WriteAtomic returns is the
//     new active segment.
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

// Compact rewrites the log as a single snapshot segment of the table.
// It runs under the engine's write lock; concurrent readers and writers
// simply wait.
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
	lids := make([]merging.ListID, 0, len(d.tab.lists))
	for lid := range d.tab.lists {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	snapID := d.activeID + 1
	snap, err := wal.WriteAtomic(d.segPath(snapID), func(l *wal.Log) error {
		if err := l.Append([]byte{segOpReset}); err != nil {
			return err
		}
		for _, lid := range lids {
			list := d.tab.lists[lid]
			shares := list.read(0, list.len(), nil)
			for start := 0; start < len(shares); start += compactChunk {
				chunk := shares[start:min(start+compactChunk, len(shares))]
				payload := make([]byte, 0, len(chunk)*segUpsertSize)
				for _, sh := range chunk {
					payload = appendUpsertRec(payload, lid, sh)
				}
				if err := l.Append(payload); err != nil {
					return err
				}
			}
			posting.PutShares(shares)
		}
		if d.hooks != nil && d.hooks.CrashCompaction == 1 {
			return fmt.Errorf("compaction stopped before rename: %w", ErrSimulatedCrash)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: compaction: %w", err)
	}
	if d.hooks != nil && d.hooks.CrashCompaction == 2 {
		// The snapshot is durable but the stale segments remain and the
		// engine still appends to them; it must be Reopened before any
		// further mutation, like after a real crash.
		snap.Close()
		return fmt.Errorf("compaction stopped before stale-segment cleanup: %w", ErrSimulatedCrash)
	}

	// Commit. A stale segment that cannot be removed is harmless (the
	// next open replays it before the snapshot's reset frame), so the
	// engine switches to the snapshot whatever happens and only reports.
	var stale error
	for id, old := range d.segs {
		old.Close()
		if err := os.Remove(d.segPath(id)); err != nil && stale == nil {
			stale = fmt.Errorf("store: compaction cleanup: %w", err)
		}
	}
	d.segs = map[uint32]*wal.Log{snapID: snap}
	d.active = snap
	d.activeID = snapID
	d.totalBytes = snap.Size()
	d.dirty = false // the snapshot was fsynced whole
	d.compactions++
	return stale
}
