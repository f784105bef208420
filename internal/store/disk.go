package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/wal"
)

// Disk is the log-structured engine: every stored share is in memory,
// in the same table a Sharded lock stripe keeps (table.go), and the
// CRC-framed append-only segment files are its log. Each mutation
// appends its batch as one wal frame to the active segment (see
// segment.go for the record codec) and then applies it to the table;
// opening a directory replays the records, which carry each share's
// group and value, into the table. After that no read touches a file:
// Scan, ScanRange, DeleteIf's allow and ApplyDeltas read the table under
// the engine's lock, so a list's stored order is the contract's
// canonical one and matches Sharded element for element.
//
// Keeping the values costs no more than an index of where they lie
// would: a share's value is 8 bytes, the size of the segment number and
// offset that would locate its record. BenchmarkHeapPerElement measures
// the heap per stored element of both engines.
//
// A frame's CRC makes its batch atomic across a crash, which is how
// ApplyDeltas stays all-or-nothing. Each segment file is a wal.Log,
// which owns replay, the torn-tail cut, appending and the atomic
// rewrite; this engine owns segment naming and discovery, rollover, and
// the multi-segment policy: opening a directory replays the segments in
// id order, a corrupt segment that is not the newest refuses to open,
// and only the newest is truncated at its last intact frame. Compaction
// (see compact.go) writes the table as a snapshot segment with
// wal.WriteAtomic, bounding log growth under churn.
type Disk struct {
	mu  sync.RWMutex
	dir string
	opt DiskOptions

	hooks *DiskSimHooks

	tab   table
	elems int

	segs       map[uint32]*wal.Log
	active     *wal.Log // segs[activeID]
	activeID   uint32
	totalBytes int64

	// dirty: the active segment holds frames written since its last
	// fsync. syncs counts the batch-boundary fsyncs, for the tests.
	dirty bool
	syncs int

	compactions int
	closed      bool
}

// DiskOptions tunes a Disk engine. The zero value picks production
// defaults; tests and the simulator shrink the sizes to exercise
// rollover and compaction on small datasets.
type DiskOptions struct {
	// SegmentBytes is the rollover threshold: once the active segment
	// reaches it, the next mutation starts a new segment file. 0 picks
	// 64 MiB.
	SegmentBytes int64
	// CacheBytes is ignored: every share is in memory, so there is no
	// payload cache to bound. It remains only for callers that set it.
	CacheBytes int
	// CompactMinBytes is the log size below which auto-compaction never
	// triggers. 0 picks 1 MiB.
	CompactMinBytes int64
	// Sync makes the Sync method fsync the active segment, so a caller
	// that marks its batch boundaries (server.Apply does, once per call)
	// acknowledges only what a power loss cannot take back. ApplyDeltas,
	// one atomic round, is its own boundary. Off by default: every
	// mutation is still flushed to the OS before it returns (a process
	// kill loses nothing), the Sync method is a no-op, and fsync happens
	// only at rollover, compaction, and Close — a power loss may lose the
	// frames since then.
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
	// short) to the newest segment before every Reopen replay — the
	// kill-mid-write shape. With correct torn-tail truncation this is
	// lossless: only the injected garbage is cut.
	TearActiveTail bool
	// SkipTornTruncate re-enables the torn-segment bug shape: replay
	// stops at the tear but leaves the file untruncated, so subsequent
	// appends land after the garbage and are silently lost at the next
	// open. The sim's non-vacuity smoke test proves the harness catches
	// exactly this.
	SkipTornTruncate bool
	// CrashCompaction makes Compact stop at a crash window and return
	// ErrSimulatedCrash: 1 = snapshot written to the temp file but not
	// renamed; 2 = renamed into place but stale segments not deleted.
	// The engine must be Reopened before further use.
	CrashCompaction int
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
// dir, replaying its segment files into memory.
func OpenDisk(dir string, opt DiskOptions) (*Disk, error) {
	d := &Disk{dir: dir, opt: opt.withDefaults()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
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

// Dir returns the directory holding the segment files.
func (d *Disk) Dir() string { return d.dir }

func segName(id uint32) string { return fmt.Sprintf("seg-%08d.zseg", id) }

func (d *Disk) segPath(id uint32) string { return filepath.Join(d.dir, segName(id)) }

// load (re)builds the whole in-memory state from the segment files.
// Callers hold the write lock (or are the constructor).
func (d *Disk) load() error {
	d.tab = newTable()
	d.elems = 0
	d.segs = make(map[uint32]*wal.Log)
	d.totalBytes = 0

	ids, err := d.segmentIDs()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return d.startSegment(1)
	}
	for i, id := range ids {
		if err := d.openSegment(id, i == len(ids)-1); err != nil {
			d.closeFiles()
			return err
		}
	}
	d.activeID = ids[len(ids)-1]
	d.active = d.segs[d.activeID]
	return nil
}

// segmentIDs lists the directory's segments in id order, removing the
// temp file of a compaction that crashed before its rename.
func (d *Disk) segmentIDs() ([]uint32, error) {
	dirEntries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	var ids []uint32
	for _, de := range dirEntries {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "seg-%08d.zseg", &id); err == nil && segName(id) == name {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}

// openSegment opens (creating it if absent) and replays one segment
// file into the table. A torn or corrupt tail is legal only in the last
// segment, where it is truncated at the last intact frame — unless the
// SkipTornTruncate bug shape is armed, which leaves the file full-length
// so appends land beyond the garbage (and are lost on the next open:
// exactly what the sim smoke test must catch).
func (d *Disk) openSegment(id uint32, last bool) error {
	l, valid, err := wal.Open(d.segPath(id), func(payload []byte) error {
		// A CRC-valid frame holding garbage records is corruption all the
		// same: reject the frame, keep the prefix before it.
		recs, err := parseSegFrame(payload)
		if err == nil {
			d.applyRecs(recs)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("store: segment %d: %w", id, err)
	}
	d.segs[id] = l
	if valid < l.Size() {
		if !last {
			return fmt.Errorf("store: segment %d corrupt at offset %d (not the newest segment; refusing to open)", id, valid)
		}
		if d.hooks == nil || !d.hooks.SkipTornTruncate {
			if err := l.Truncate(valid); err != nil {
				return fmt.Errorf("store: segment %d: %w", id, err)
			}
		}
	}
	d.totalBytes += l.Size()
	return nil
}

// applyRecs folds one parsed frame into the table. Replay is lenient
// about records addressing absent elements (a fuzzer or a stale segment
// can produce them).
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
		case segOpReset:
			d.tab = newTable()
			d.elems = 0
		}
	}
}

// closeFiles releases every segment handle. None holds a buffered
// frame: appendFrame flushes each one.
func (d *Disk) closeFiles() {
	for _, l := range d.segs {
		l.Close()
	}
	d.segs = nil
	d.active = nil
}

// Reopen models a kill + restart: the table is discarded and rebuilt
// from the files, exactly as a fresh OpenDisk would see them. If the
// TearActiveTail hook is armed, a torn frame is appended to the newest
// segment first.
func (d *Disk) Reopen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closeFiles()
	if d.hooks != nil && d.hooks.TearActiveTail {
		if err := d.tearNewestSegment(); err != nil {
			return err
		}
	}
	return d.load()
}

// tearNewestSegment appends a torn frame to the highest-numbered segment
// file on disk (which may be a compaction snapshot newer than the
// in-memory active id, after a simulated stage-2 compaction crash).
func (d *Disk) tearNewestSegment() error {
	ids, err := d.segmentIDs()
	if err != nil || len(ids) == 0 {
		return err
	}
	f, err := os.OpenFile(d.segPath(ids[len(ids)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: tearing segment: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(wal.TornFrame(64)); err != nil {
		return fmt.Errorf("store: tearing segment: %w", err)
	}
	return nil
}

// Close flushes and fsyncs the active segment and releases all file
// handles. The store must not be mutated afterwards; a
// read that straggles in after Close (a fan-out call nobody waits for)
// finds no lists.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.active != nil {
		err = d.active.Sync()
	}
	d.closeFiles()
	d.tab = table{}
	return err
}

// DiskStats is a point-in-time snapshot of the engine's resource shape,
// for tests and operational logging.
type DiskStats struct {
	Segments    int
	DiskBytes   int64 // bytes across all segment files in use
	LiveBytes   int64 // bytes the live elements would occupy compacted
	CachedBytes int   // bytes of the stored shares, every one of them in memory
	Compactions int   // compactions since open (auto + explicit)
}

// Stats reports the engine's current resource shape.
func (d *Disk) Stats() DiskStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DiskStats{
		Segments:    len(d.segs),
		DiskBytes:   d.totalBytes,
		LiveBytes:   d.liveBytes(),
		CachedBytes: d.elems * shareBytes,
		Compactions: d.compactions,
	}
}

func (d *Disk) liveBytes() int64 { return int64(d.elems) * segUpsertSize }

// ---- write path ----

// appendFrame appends one framed mutation batch to the active segment,
// rolling over to a new segment file at the size threshold first. I/O
// failure on the mutation path is fail-fast: the Store interface has no
// error channel, and continuing past a lost write would silently fork
// the table from its log.
func (d *Disk) appendFrame(payload []byte) {
	var err error
	if d.active.Size() >= d.opt.SegmentBytes {
		err = d.rollover()
	}
	if err == nil {
		err = d.active.Append(payload)
	}
	if err == nil {
		err = d.active.Flush()
	}
	if err != nil {
		panic(fmt.Sprintf("store: disk append: %v", err))
	}
	d.dirty = true
	d.totalBytes += wal.FrameSize(payload)
}

// Sync implements Store: the batch boundary. With DiskOptions.Sync it
// fsyncs the active segment if any frame was written since the last
// fsync — frames in older segments were fsynced at rollover — so one
// call covers every mutation that returned before it, however many
// frames and lists they spanned. On failure the batch stays dirty and
// the next boundary tries again.
func (d *Disk) Sync() error {
	if !d.opt.Sync {
		return nil // without touching the lock readers share
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncLocked()
}

func (d *Disk) syncLocked() error {
	if !d.opt.Sync || !d.dirty {
		return nil
	}
	if err := d.active.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.dirty = false
	d.syncs++
	return nil
}

// rollover fsyncs the active segment and starts the next one.
func (d *Disk) rollover() error {
	if err := d.active.Sync(); err != nil {
		return err
	}
	d.dirty = false
	return d.startSegment(d.activeID + 1)
}

// startSegment creates segment id as the active one. Under
// DiskOptions.Sync its directory entry is made durable: without that a
// power loss could unlink the file that later acknowledged frames were
// fsynced into.
func (d *Disk) startSegment(id uint32) error {
	if err := d.openSegment(id, true); err != nil {
		return err
	}
	if d.opt.Sync {
		wal.SyncDir(d.dir)
	}
	d.active, d.activeID = d.segs[id], id
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

// ApplyDeltas implements Store. The whole round is one segment frame, so
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
		return fmt.Errorf("store: reshare round of %d elements exceeds one atomic segment frame", n)
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
