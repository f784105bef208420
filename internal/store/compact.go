package store

import (
	"fmt"
	"sort"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/wal"
)

// Compaction for the Disk engine. A log under churn accumulates garbage
// — replaced upserts, delete and drop records — that replay must read
// but the table no longer holds. Compaction replaces the log with a
// snapshot of the table: wal.WriteAtomic writes every live list, each in
// its stored order (the canonical one), to a temp file beside the log,
// fsyncs it and renames it over the log, and the handle it returns is
// the log from then on, as journal.Rewrite does for the peer journal.
//
// The one crash window, the snapshot written but not renamed, leaves
// the old log whole; open removes the temp file.
//
// Auto-compaction triggers on the mutation path once the log exceeds
// CompactMinBytes and less than half of it is live.

// compactChunk bounds the records per snapshot frame so one frame stays
// far under wal.MaxFramePayload regardless of list length.
const compactChunk = 4096

// Compact rewrites the log as a snapshot of the table. It runs under
// the engine's write lock; concurrent readers and writers simply wait.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

// maybeCompact runs on the mutation path (lock held). Failure here is
// fail-fast like any other mutation-path I/O error.
func (d *Disk) maybeCompact() {
	if d.hooks != nil && d.hooks.CrashCompaction {
		return
	}
	size := d.log.Size()
	if size < d.opt.CompactMinBytes || d.liveBytes()*2 >= size {
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
	snap, err := wal.WriteAtomic(d.logPath(), func(l *wal.Log) error {
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
		if d.hooks != nil && d.hooks.CrashCompaction {
			return fmt.Errorf("compaction stopped before rename: %w", ErrSimulatedCrash)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: compaction: %w", err)
	}
	// The old file is unlinked and the snapshot holds everything of it
	// that still matters, so its close error changes nothing.
	_ = d.log.Close()
	d.log = snap
	d.unsynced = 0 // the snapshot was fsynced whole
	d.fsyncs++
	d.compactions++
	return nil
}
