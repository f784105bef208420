package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/wal"
)

// Disk is the log-structured engine: every stored share is in memory,
// in the same table a Sharded lock stripe keeps (table.go), and one
// CRC-framed append-only file is its log. Each mutation appends its
// batch as one wal frame to the log (see segment.go for the record
// codec) and then applies it to the table; opening a directory replays
// the records, which carry each share's group and value, into the
// table. After that no read touches the file: Scan, ScanRange,
// DeleteIf's allow and ApplyDeltas read the table under the engine's
// lock, so a list's stored order is the contract's canonical one and
// matches Sharded element for element.
//
// Keeping the values costs no more than an index of where they lie
// would: a share's value is 8 bytes, the size of the file offset that
// would locate its record. BenchmarkHeapPerElement measures the heap per
// stored element of both engines.
//
// A frame's CRC makes its batch atomic across a crash, which is how
// ApplyDeltas stays all-or-nothing. The log is a wal.Log, run the way
// the peer journal runs its own: open replays it and cuts a torn or
// corrupt tail at the last intact frame, and compaction (compact.go)
// replaces it whole with a snapshot of the table through
// wal.WriteAtomic, bounding its growth under churn.
type Disk struct {
	mu  sync.RWMutex
	dir string
	opt DiskOptions

	hooks *DiskSimHooks

	tab   table
	elems int

	log *wal.Log
	// unsynced counts the log bytes not known to be fsynced; fsyncs
	// counts the fsyncs since open, for the tests.
	unsynced int64
	fsyncs   int

	compactions int
	closed      bool
}

// logName is the log file in the store directory. It keeps the name of
// the first segment of the earlier layout, which split the log across
// numbered files, so a directory that layout wrote without ever rolling
// over or compacting opens unchanged, and FuzzSegmentDecode's corpus
// stays valid.
const logName = "seg-00000001.zseg"

// DiskOptions tunes a Disk engine. The zero value picks production
// defaults; tests and the simulator shrink the sizes to exercise the
// fsync bound and compaction on small datasets.
type DiskOptions struct {
	// SegmentBytes bounds what a power loss can take with Sync off: an
	// append that would leave more than that many bytes of the log
	// unsynced fsyncs the log first, so only one frame longer than the
	// bound is ever unsynced beyond it. It also bounds the damage open
	// cuts (see load). 0 picks 64 MiB.
	SegmentBytes int64
	// CacheBytes is ignored: every share is in memory, so there is no
	// payload cache to bound. It remains only for callers that set it.
	CacheBytes int
	// CompactMinBytes is the log size below which auto-compaction never
	// triggers. 0 picks 1 MiB.
	CompactMinBytes int64
	// Sync makes the Sync method fsync the log, so a caller that marks
	// its batch boundaries (server.Apply does, once per call)
	// acknowledges only what a power loss cannot take back. ApplyDeltas,
	// one atomic round, is its own boundary. Off by default: every
	// mutation is still flushed to the OS before it returns (a process
	// kill loses nothing), the Sync method is a no-op, and fsync happens
	// only at the SegmentBytes bound, compaction, and Close — a power
	// loss may lose the frames since then.
	Sync bool
}

// shareBytes is what one stored share weighs in memory
// (unsafe.Sizeof(posting.EncryptedShare{}) with padding), the unit of
// DiskStats.CachedBytes.
const shareBytes = 24

const (
	defaultSegmentBytes    = 64 << 20
	defaultCompactMinBytes = 1 << 20
	// maxRecsPerFrame chunks huge Upsert batches so one frame stays far
	// under wal.MaxFramePayload. ApplyDeltas is never chunked (the whole
	// round must be one atomic frame) and errors out above the limit.
	maxRecsPerFrame = 256 << 10
)

// DiskSimHooks lets the deterministic simulator (internal/sim) inject
// crash shapes that black-box testing cannot reach. Production code
// never sets hooks.
type DiskSimHooks struct {
	// TearActiveTail appends a torn frame (valid length header, body cut
	// short) to the log before every Reopen replay — the kill-mid-write
	// shape. With correct torn-tail truncation this is lossless: only
	// the injected garbage is cut.
	TearActiveTail bool
	// SkipTornTruncate re-enables the torn-log bug shape: replay stops
	// at the tear but leaves the file untruncated, so subsequent appends
	// land after the garbage and are silently lost at the next open. The
	// sim's non-vacuity smoke test proves the harness catches exactly
	// this.
	SkipTornTruncate bool
	// CrashCompaction makes Compact stop in its crash window, with the
	// snapshot written to the temp file but not renamed, and return
	// ErrSimulatedCrash. The engine keeps appending to the old log; the
	// simulator Reopens it as a restart would.
	CrashCompaction bool
}

// ErrSimulatedCrash is returned by Compact when a DiskSimHooks crash
// window fired; the on-disk state is as a real crash would leave it.
var ErrSimulatedCrash = errors.New("store: simulated crash (sim hook)")

func (o DiskOptions) withDefaults() DiskOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = defaultCompactMinBytes
	}
	return o
}

// OpenDisk opens (creating if needed) a log-structured store rooted at
// dir, replaying its log into memory. A directory holding any other
// segment file was written by the earlier multi-file layout, which this
// engine does not read; it is refused with an error naming the file, and
// no file in it is changed. Otherwise the temp files of crashed
// compactions, of either layout, are removed: the log beside them is
// whole.
func OpenDisk(dir string, opt DiskOptions) (*Disk, error) {
	d := &Disk{dir: dir, opt: opt.withDefaults()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	var temps []string
	for _, e := range entries {
		if legacy, _ := filepath.Match("seg-*.zseg", e.Name()); legacy && e.Name() != logName {
			return nil, fmt.Errorf("store: %s is a segment of the multi-file log layout, which this engine does not read; refusing to open the directory", filepath.Join(dir, e.Name()))
		}
		if temp, _ := filepath.Match("seg-*.zseg.tmp", e.Name()); temp {
			temps = append(temps, filepath.Join(dir, e.Name()))
		}
	}
	for _, t := range temps {
		os.Remove(t) // best effort: a leftover only wastes space
	}
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, nil
}

// SetSimHooks installs (or, with nil, clears) simulator crash hooks.
func (d *Disk) SetSimHooks(h *DiskSimHooks) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hooks = h
}

// Dir returns the directory holding the log.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) logPath() string { return filepath.Join(d.dir, logName) }

// load (re)builds the whole in-memory state from the log, opening it
// (creating it if absent) for appends. A torn or corrupt tail is cut at
// the last intact frame — unless the SkipTornTruncate bug shape is
// armed, which leaves the file full-length so appends land beyond the
// garbage (and are lost on the next open: exactly what the sim smoke
// test must catch). Callers hold the write lock (or are the
// constructor).
//
// Only a crash's tail is cut. A crash can damage only what was not yet
// fsynced: at most SegmentBytes, or the one frame an append wrote past
// that bound (appendFrame). Damage beyond that, with intact-looking
// bytes after it, is corruption of acknowledged frames, and cutting
// there would silently drop every frame after it; open refuses it
// instead, naming the offset, and changes no file.
func (d *Disk) load() error {
	d.tab = newTable()
	d.elems = 0
	l, valid, err := wal.Open(d.logPath(), func(payload []byte) error {
		// A CRC-valid frame holding garbage records is corruption all the
		// same: reject the frame, keep the prefix before it.
		recs, err := parseSegFrame(payload)
		if err == nil {
			d.applyRecs(recs)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if bad := l.Size() - valid; bad > d.opt.SegmentBytes && !d.lastFrameAt(valid, l.Size()) {
		l.Close()
		return fmt.Errorf("store: %s: the frame at offset %d is corrupt and %d bytes follow it, more than a crash leaves unsynced; refusing to cut them", d.logPath(), valid, bad)
	}
	if d.hooks == nil || !d.hooks.SkipTornTruncate {
		if err := l.Truncate(valid); err != nil {
			l.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	d.log = l
	// Nothing says the file is on stable storage yet: the process that
	// wrote it may not have fsynced its tail.
	d.unsynced = l.Size()
	return nil
}

// lastFrameAt reports whether the frame starting at off in a log of size
// bytes is its last: its length word is cut short, or claims at least
// the rest of the file.
func (d *Disk) lastFrameAt(off, size int64) bool {
	f, err := os.Open(d.logPath())
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [4]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return err == io.EOF
	}
	return off+4+int64(binary.LittleEndian.Uint32(hdr[:]))+4 >= size // length, payload, checksum
}

// applyRecs folds one parsed frame into the table. Replay is lenient
// about records addressing absent elements (a fuzzer can produce them).
func (d *Disk) applyRecs(recs []segRec) {
	for _, rec := range recs {
		switch rec.op {
		case segOpUpsert:
			d.elems += d.tab.upsert(rec.lid, []posting.EncryptedShare{{GlobalID: rec.gid, Group: rec.group, Y: rec.y}})
		case segOpDelete:
			if _, deleted := d.tab.deleteIf(rec.lid, rec.gid, nil); deleted {
				d.elems--
			}
		case segOpDrop:
			d.elems -= d.tab.dropList(rec.lid)
		}
	}
}

// Reopen models a kill + restart: the table is discarded and rebuilt
// from the log, exactly as a fresh OpenDisk would see it. If the
// TearActiveTail hook is armed, a torn frame is appended to the log
// first.
func (d *Disk) Reopen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log.Close()
	if d.hooks != nil && d.hooks.TearActiveTail {
		if err := d.tearLog(); err != nil {
			return err
		}
	}
	return d.load()
}

// tearLog appends a torn frame to the log file.
func (d *Disk) tearLog() error {
	f, err := os.OpenFile(d.logPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: tearing the log: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(wal.TornFrame(64)); err != nil {
		return fmt.Errorf("store: tearing the log: %w", err)
	}
	return nil
}

// Close fsyncs and closes the log. The store must not be mutated
// afterwards; Sync has nothing left to do, and a read that straggles in
// after Close (a fan-out call nobody waits for) finds no lists.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.log.Sync()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	d.unsynced = 0
	d.tab = table{}
	return err
}

// DiskStats is a point-in-time snapshot of the engine's resource shape,
// for tests and operational logging.
type DiskStats struct {
	DiskBytes   int64 // bytes in the log file
	LiveBytes   int64 // bytes the live elements would occupy compacted
	CachedBytes int   // bytes of the stored shares, every one of them in memory
	Compactions int   // compactions since open (auto + explicit)
}

// Stats reports the engine's current resource shape.
func (d *Disk) Stats() DiskStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DiskStats{
		DiskBytes:   d.log.Size(),
		LiveBytes:   d.liveBytes(),
		CachedBytes: d.elems * shareBytes,
		Compactions: d.compactions,
	}
}

func (d *Disk) liveBytes() int64 { return int64(d.elems) * segUpsertSize }

// ---- write path ----

// appendFrame appends one framed mutation batch to the log and hands it
// to the OS, first fsyncing what is unsynced if the frame would take it
// past DiskOptions.SegmentBytes. I/O failure on the mutation path is
// fail-fast: the Store interface has no error channel, and continuing
// past a lost write would silently fork the table from its log.
func (d *Disk) appendFrame(payload []byte) {
	size := wal.FrameSize(payload)
	var err error
	if d.unsynced > 0 && d.unsynced+size > d.opt.SegmentBytes {
		err = d.fsync()
	}
	if err == nil {
		err = d.log.Append(payload)
	}
	if err == nil {
		err = d.log.Flush()
	}
	if err == nil {
		d.unsynced += size
	}
	if err != nil {
		panic(fmt.Sprintf("store: disk append: %v", err))
	}
}

// fsync makes every frame appended so far durable. On failure the bytes
// stay unsynced and the next fsync tries again.
func (d *Disk) fsync() error {
	if err := d.log.Sync(); err != nil {
		return err
	}
	d.unsynced = 0
	d.fsyncs++
	return nil
}

// Sync implements Store: the batch boundary. With DiskOptions.Sync it
// fsyncs the log if anything in it is unsynced, so one call covers every
// mutation that returned before it, however many frames and lists they
// spanned.
func (d *Disk) Sync() error {
	if !d.opt.Sync {
		return nil // without touching the lock readers share
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncLocked()
}

func (d *Disk) syncLocked() error {
	if !d.opt.Sync || d.unsynced == 0 {
		return nil
	}
	if err := d.fsync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Upsert implements Store.
func (d *Disk) Upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	if len(shares) == 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	added := 0
	for len(shares) > 0 {
		batch := shares[:min(len(shares), maxRecsPerFrame)]
		shares = shares[len(batch):]
		payload := make([]byte, 0, len(batch)*segUpsertSize)
		for _, sh := range batch {
			payload = appendUpsertRec(payload, lid, sh)
		}
		d.appendFrame(payload)
		added += d.tab.upsert(lid, batch)
	}
	d.elems += added
	d.maybeCompact()
	return added
}

// DeleteIf implements Store.
func (d *Disk) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The frame goes to the log once the delete is decided and before
	// the table changes, as every mutation's does.
	found, deleted = d.tab.deleteIf(lid, gid, func(sh posting.EncryptedShare) bool {
		if allow != nil && !allow(sh) {
			return false
		}
		d.appendFrame(appendDeleteRec(nil, lid, gid))
		return true
	})
	if deleted {
		d.elems--
		d.maybeCompact()
	}
	return found, deleted
}

// DropList implements Store.
func (d *Disk) DropList(lid merging.ListID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tab.lists[lid] == nil {
		return 0
	}
	d.appendFrame(appendDropRec(nil, lid))
	n := d.tab.dropList(lid)
	d.elems -= n
	d.maybeCompact()
	return n
}

// ApplyDeltas implements Store. The whole round is one log frame, so
// a crash either persists every refreshed share or none — a partially
// refreshed element would be undecryptable.
func (d *Disk) ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := checkDeltas(deltas, d.tab.groupsOf)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if int64(n)*segUpsertSize > wal.MaxFramePayload {
		return fmt.Errorf("store: reshare round of %d elements exceeds one atomic log frame", n)
	}
	// Deterministic record order (sorted list, then gid) so the log is
	// reproducible.
	lids := make([]merging.ListID, 0, len(deltas))
	for lid := range deltas {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	payload := make([]byte, 0, n*segUpsertSize)
	for _, lid := range lids {
		l := d.tab.lists[lid]
		byID := deltas[lid]
		gids := make([]posting.GlobalID, 0, len(byID))
		for gid := range byID {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
		for _, gid := range gids {
			ri, i, _ := l.find(gid)
			sh := l.runs[ri].shares[i]
			sh.Y = field.Add(sh.Y, byID[gid])
			payload = appendUpsertRec(payload, lid, sh)
		}
	}
	d.appendFrame(payload)
	d.tab.applyDeltas(deltas)
	d.maybeCompact()
	return d.syncLocked()
}

// ---- read path ----

// Scan implements Store.
func (d *Disk) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tab.scan(lid, keep)
}

// ScanRange implements Store.
func (d *Disk) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (shares []posting.EncryptedShare, total int, next uint8) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tab.scanRange(lid, from, n, keep)
}

// ListLengths implements Store.
func (d *Disk) ListLengths() map[merging.ListID]int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[merging.ListID]int, len(d.tab.lists))
	d.tab.lengths(out)
	return out
}

// TotalElements implements Store.
func (d *Disk) TotalElements() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.elems
}
