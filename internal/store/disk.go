package store

import (
	"container/list"
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

// Disk is the log-structured engine: share payloads live in CRC-framed
// append-only segment files, and resident memory holds only a compact
// index of list -> (segment, offset, bucket) entries plus a bounded
// payload cache — O(index), not O(shares), so the stored volume can
// exceed RAM.
//
// Every mutation batch is one wal frame appended to the active segment
// (see segment.go for the record codec); the frame's CRC makes the batch
// atomic across a crash, which is how ApplyDeltas stays all-or-nothing.
// The in-memory index applies exactly the bucket-major bubble moves of
// the shared table core (table.go), so the stored order — a pure
// function of the per-list operation history — matches Sharded element
// for element.
//
// Each segment file is a wal.Log, which owns replay, the torn-tail cut,
// appending and the atomic rewrite; this engine owns segment naming and
// discovery, rollover, the index and cache, and the multi-segment
// policy: opening a directory replays the segments in id order, a
// corrupt segment that is not the newest refuses to open, and only the
// newest is truncated at its last intact frame. Compaction (see
// compact.go) rewrites the live index as a snapshot segment with
// wal.WriteAtomic, bounding log growth under churn.
type Disk struct {
	mu  sync.RWMutex
	dir string
	opt DiskOptions

	hooks *DiskSimHooks

	lists map[merging.ListID]*diskList
	elems int

	segs       map[uint32]*wal.Log
	active     *wal.Log // segs[activeID]
	activeID   uint32
	totalBytes int64

	lru         *list.List // of merging.ListID, front = most recently admitted/written
	cachedBytes int

	// dirty: the active segment holds frames written since its last
	// fsync. syncs counts the batch-boundary fsyncs, for the tests.
	dirty bool
	syncs int

	compactions int
	closed      bool
}

// DiskOptions tunes a Disk engine. The zero value picks production
// defaults; tests and the simulator shrink the sizes to exercise
// rollover, compaction, and cache misses on small datasets.
type DiskOptions struct {
	// SegmentBytes is the rollover threshold: once the active segment
	// reaches it, the next mutation starts a new segment file. 0 picks
	// 64 MiB; values are capped at 1 GiB so record offsets fit uint32.
	SegmentBytes int64
	// CacheBytes bounds the resident payload cache (accounted at
	// shareBytes per element). 0 picks 32 MiB; negative disables
	// caching entirely.
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

// shareBytes is the cache accounting cost of one resident share
// (unsafe.Sizeof(posting.EncryptedShare{}) with padding).
const shareBytes = 24

const (
	defaultSegmentBytes    = 64 << 20
	maxSegmentBytes        = 1 << 30
	defaultCacheBytes      = 32 << 20
	defaultCompactMinBytes = 1 << 20
	// segReadGap merges adjacent record reads whose file gap is at most
	// this many bytes into one ReadAt span; segReadSpan caps a span.
	segReadGap  = 512
	segReadSpan = 1 << 20
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

// diskEntry locates one stored share: the segment and byte offset of the
// upsert record holding its current payload.
type diskEntry struct {
	gid posting.GlobalID
	seg uint32
	off uint32
}

// diskList is one list's index: entries in the bucket-major stored
// order, a position map, per-bucket counts, and — when resident — the
// decoded payloads aligned index-for-index with entries.
type diskList struct {
	entries []diskEntry
	pos     map[posting.GlobalID]int
	cnt     [posting.ImpactBuckets]int
	shares  []posting.EncryptedShare // nil when not resident
	lruElem *list.Element
}

func (dl *diskList) resident() bool { return dl.shares != nil }

// upsertEntry inserts or replaces one element, mirroring table.upsert's
// bubble move exactly; sh is applied to the resident copy when present.
func (dl *diskList) upsertEntry(e diskEntry, sh posting.EncryptedShare) (added bool) {
	if i, ok := dl.pos[e.gid]; ok {
		dl.entries[i] = e
		if dl.shares != nil {
			dl.shares[i] = sh
		}
		return false
	}
	b := posting.ImpactOf(e.gid)
	dl.entries = append(dl.entries, diskEntry{})
	if dl.shares != nil {
		dl.shares = append(dl.shares, posting.EncryptedShare{})
	}
	hole := len(dl.entries) - 1
	for j := 0; j < int(b); j++ {
		if dl.cnt[j] == 0 {
			continue
		}
		s := hole - dl.cnt[j]
		dl.entries[hole] = dl.entries[s]
		if dl.shares != nil {
			dl.shares[hole] = dl.shares[s]
		}
		dl.pos[dl.entries[hole].gid] = hole
		hole = s
	}
	dl.entries[hole] = e
	if dl.shares != nil {
		dl.shares[hole] = sh
	}
	dl.pos[e.gid] = hole
	dl.cnt[b]++
	return true
}

// deleteEntry removes gid (which must be present), mirroring
// table.deleteIf's layout-preserving moves.
func (dl *diskList) deleteEntry(gid posting.GlobalID) {
	idx := dl.pos[gid]
	b := posting.ImpactOf(gid)
	end := 0
	for j := int(b); j < posting.ImpactBuckets; j++ {
		end += dl.cnt[j]
	}
	hole := end - 1
	if idx != hole {
		dl.entries[idx] = dl.entries[hole]
		if dl.shares != nil {
			dl.shares[idx] = dl.shares[hole]
		}
		dl.pos[dl.entries[idx].gid] = idx
	}
	for j := int(b) - 1; j >= 0; j-- {
		if dl.cnt[j] == 0 {
			continue
		}
		src := hole + dl.cnt[j]
		dl.entries[hole] = dl.entries[src]
		if dl.shares != nil {
			dl.shares[hole] = dl.shares[src]
		}
		dl.pos[dl.entries[hole].gid] = hole
		hole = src
	}
	dl.entries = dl.entries[:len(dl.entries)-1]
	if dl.shares != nil {
		dl.shares = dl.shares[:len(dl.shares)-1]
	}
	dl.cnt[b]--
	delete(dl.pos, gid)
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.SegmentBytes > maxSegmentBytes {
		o.SegmentBytes = maxSegmentBytes
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = defaultCacheBytes
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = defaultCompactMinBytes
	}
	return o
}

// OpenDisk opens (creating if needed) a log-structured store rooted at
// dir, replaying its segment files into the in-memory index.
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
	d.lists = make(map[merging.ListID]*diskList)
	d.elems = 0
	d.segs = make(map[uint32]*wal.Log)
	d.lru = list.New()
	d.cachedBytes = 0
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
// file into the index. A torn or corrupt tail is legal only in the last
// segment, where it is truncated at the last intact frame — unless the
// SkipTornTruncate bug shape is armed, which leaves the file full-length
// so appends land beyond the garbage (and are lost on the next open:
// exactly what the sim smoke test must catch).
func (d *Disk) openSegment(id uint32, last bool) error {
	l, valid, err := wal.Open(d.segPath(id), func(payload []byte, off int64) error {
		// A CRC-valid frame holding garbage records is corruption all the
		// same: reject the frame, keep the prefix before it.
		recs, err := parseSegFrame(payload)
		if err == nil {
			d.applyRecs(id, off, recs)
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

// applyRecs folds one parsed frame, whose payload starts at file offset
// off, into the index. Replay is lenient about records addressing absent
// elements (a fuzzer or a stale segment can produce them); payloads are
// never materialized here — entries point back into the file.
func (d *Disk) applyRecs(seg uint32, off int64, recs []segRec) {
	for _, rec := range recs {
		switch rec.op {
		case segOpUpsert:
			dl := d.lists[rec.lid]
			if dl == nil {
				dl = &diskList{pos: make(map[posting.GlobalID]int)}
				d.lists[rec.lid] = dl
			}
			e := diskEntry{gid: rec.gid, seg: seg, off: uint32(off + int64(rec.relOff))}
			if dl.upsertEntry(e, posting.EncryptedShare{}) {
				d.elems++
			}
		case segOpDelete:
			dl := d.lists[rec.lid]
			if dl == nil {
				continue
			}
			if _, ok := dl.pos[rec.gid]; !ok {
				continue
			}
			dl.deleteEntry(rec.gid)
			d.elems--
			if len(dl.entries) == 0 {
				delete(d.lists, rec.lid)
			}
		case segOpDrop:
			if dl := d.lists[rec.lid]; dl != nil {
				d.elems -= len(dl.entries)
				delete(d.lists, rec.lid)
			}
		case segOpReset:
			d.lists = make(map[merging.ListID]*diskList)
			d.elems = 0
		}
	}
}

// closeFiles releases every segment handle. None holds a buffered frame:
// appendFrame flushes each one.
func (d *Disk) closeFiles() {
	for _, l := range d.segs {
		l.Close()
	}
	d.segs = nil
	d.active = nil
}

// Reopen models a kill + restart: the cache and index are discarded and
// rebuilt from the files, exactly as a fresh OpenDisk would see them. If
// the TearActiveTail hook is armed, a torn frame is appended to the
// newest segment first.
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
// handles. The store must not be used afterwards.
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
	return err
}

// DiskStats is a point-in-time snapshot of the engine's resource shape,
// for tests and operational logging.
type DiskStats struct {
	Segments      int
	DiskBytes     int64 // bytes across all segment files in use
	LiveBytes     int64 // bytes the live elements would occupy compacted
	CachedBytes   int   // resident payload cache charge
	ResidentLists int
	Compactions   int // compactions since open (auto + explicit)
}

// Stats reports the engine's current resource shape.
func (d *Disk) Stats() DiskStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DiskStats{
		Segments:      len(d.segs),
		DiskBytes:     d.totalBytes,
		LiveBytes:     d.liveBytes(),
		CachedBytes:   d.cachedBytes,
		ResidentLists: d.lru.Len(),
		Compactions:   d.compactions,
	}
}

func (d *Disk) liveBytes() int64 { return int64(d.elems) * segUpsertSize }

// ---- write path ----

// appendFrame appends one framed mutation batch to the active segment,
// rolling over to a new segment file at the size threshold first, and
// returns the segment id and absolute offset of the payload's first
// byte. I/O failure on the mutation path is fail-fast: the Store
// interface has no error channel, and continuing past a lost write
// would silently fork the index from its log.
func (d *Disk) appendFrame(payload []byte) (seg uint32, payloadOff int64) {
	var err error
	if d.active.Size() >= d.opt.SegmentBytes {
		err = d.rollover()
	}
	if err == nil {
		payloadOff, err = d.active.Append(payload)
	}
	if err == nil {
		err = d.active.Flush()
	}
	if err != nil {
		panic(fmt.Sprintf("store: disk append: %v", err))
	}
	d.dirty = true
	d.totalBytes += wal.FrameSize(payload)
	return d.activeID, payloadOff
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

func (d *Disk) getList(lid merging.ListID) *diskList {
	dl := d.lists[lid]
	if dl == nil {
		dl = &diskList{pos: make(map[posting.GlobalID]int)}
		d.lists[lid] = dl
		// A brand-new list is admitted resident for free: its payloads
		// arrive through the write path, no read-back needed.
		if d.opt.CacheBytes > 0 {
			dl.shares = []posting.EncryptedShare{}
			dl.lruElem = d.lru.PushFront(lid)
		}
	}
	return dl
}

// dropResident removes dl's payload copy from the cache.
func (d *Disk) dropResident(dl *diskList) {
	if dl.lruElem != nil {
		d.lru.Remove(dl.lruElem)
		dl.lruElem = nil
	}
	d.cachedBytes -= len(dl.shares) * shareBytes
	dl.shares = nil
}

// evict trims least-recently-touched lists until the cache fits its
// budget.
func (d *Disk) evict() {
	for d.cachedBytes > d.opt.CacheBytes && d.lru.Len() > 0 {
		back := d.lru.Back()
		lid := back.Value.(merging.ListID)
		dl := d.lists[lid]
		if dl == nil || dl.lruElem != back {
			// Stale LRU entry; should not happen, but never loop on it.
			d.lru.Remove(back)
			continue
		}
		d.dropResident(dl)
	}
}

// touch marks a resident list recently used. Only writers call it (the
// read fast path holds just the read lock), so eviction order is
// admission/write recency.
func (d *Disk) touch(dl *diskList) {
	if dl.lruElem != nil {
		d.lru.MoveToFront(dl.lruElem)
	}
}

func (d *Disk) removeList(lid merging.ListID, dl *diskList) {
	if dl.shares != nil {
		d.dropResident(dl)
	}
	delete(d.lists, lid)
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
		batch := shares
		if len(batch) > maxRecsPerFrame {
			batch = batch[:maxRecsPerFrame]
		}
		shares = shares[len(batch):]
		payload := make([]byte, 0, len(batch)*segUpsertSize)
		for _, sh := range batch {
			payload = appendUpsertRec(payload, lid, sh)
		}
		seg, base := d.appendFrame(payload)
		dl := d.getList(lid)
		wasResident := dl.resident()
		before := len(dl.entries)
		for i, sh := range batch {
			e := diskEntry{gid: sh.GlobalID, seg: seg, off: uint32(base + int64(i)*segUpsertSize)}
			if dl.upsertEntry(e, sh) {
				added++
			}
		}
		d.elems += len(dl.entries) - before
		if wasResident {
			d.cachedBytes += (len(dl.entries) - before) * shareBytes
			d.touch(dl)
		}
	}
	d.evict()
	d.maybeCompact()
	return added
}

// DeleteIf implements Store.
func (d *Disk) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dl := d.lists[lid]
	if dl == nil {
		return false, false
	}
	idx, ok := dl.pos[gid]
	if !ok {
		return false, false
	}
	if allow != nil {
		sh, err := d.shareAt(dl, idx, lid)
		if err != nil {
			panic(fmt.Sprintf("store: disk read: %v", err))
		}
		if !allow(sh) {
			return true, false
		}
	}
	d.appendFrame(appendDeleteRec(nil, lid, gid))
	dl.deleteEntry(gid)
	d.elems--
	if dl.resident() {
		d.cachedBytes -= shareBytes
	}
	if len(dl.entries) == 0 {
		d.removeList(lid, dl)
	}
	d.maybeCompact()
	return true, true
}

// DropList implements Store.
func (d *Disk) DropList(lid merging.ListID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	dl := d.lists[lid]
	if dl == nil {
		return 0
	}
	n := len(dl.entries)
	d.appendFrame(appendDropRec(nil, lid))
	d.elems -= n
	d.removeList(lid, dl)
	d.maybeCompact()
	return n
}

// ApplyDeltas implements Store. The whole round is one segment frame, so
// a crash either persists every refreshed share or none — a partially
// refreshed element would be undecryptable.
func (d *Disk) ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for lid, byID := range deltas {
		dl := d.lists[lid]
		for gid := range byID {
			if dl == nil {
				return fmt.Errorf("reshare delta for element %d in list %d: %w", gid, lid, ErrMissing)
			}
			if _, ok := dl.pos[gid]; !ok {
				return fmt.Errorf("reshare delta for element %d in list %d: %w", gid, lid, ErrMissing)
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if int64(n)*segUpsertSize > wal.MaxFramePayload {
		return fmt.Errorf("store: reshare round of %d elements exceeds one atomic segment frame", n)
	}
	// Deterministic record order (sorted list, then gid) so the log —
	// and therefore the replayed layout — is reproducible.
	lids := make([]merging.ListID, 0, len(deltas))
	for lid := range deltas {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	type upd struct {
		lid merging.ListID
		sh  posting.EncryptedShare
	}
	updates := make([]upd, 0, n)
	payload := make([]byte, 0, n*segUpsertSize)
	for _, lid := range lids {
		dl := d.lists[lid]
		byID := deltas[lid]
		gids := make([]posting.GlobalID, 0, len(byID))
		for gid := range byID {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
		for _, gid := range gids {
			sh, err := d.shareAt(dl, dl.pos[gid], lid)
			if err != nil {
				panic(fmt.Sprintf("store: disk read: %v", err))
			}
			sh.Y = field.Add(sh.Y, byID[gid])
			payload = appendUpsertRec(payload, lid, sh)
			updates = append(updates, upd{lid, sh})
		}
	}
	seg, base := d.appendFrame(payload)
	for i, u := range updates {
		dl := d.lists[u.lid]
		idx := dl.pos[u.sh.GlobalID]
		dl.entries[idx].seg = seg
		dl.entries[idx].off = uint32(base + int64(i)*segUpsertSize)
		if dl.shares != nil {
			dl.shares[idx] = u.sh
		}
	}
	d.maybeCompact()
	return d.syncLocked()
}

// ---- read path ----

// shareAt returns the share at index idx of dl, from the resident copy
// or a single record read. Lock held (read or write — ReadAt is a
// positioned read, safe either way).
func (d *Disk) shareAt(dl *diskList, idx int, lid merging.ListID) (posting.EncryptedShare, error) {
	if dl.shares != nil {
		return dl.shares[idx], nil
	}
	e := dl.entries[idx]
	var buf [segUpsertSize]byte
	if _, err := d.segs[e.seg].ReadAt(buf[:], int64(e.off)); err != nil {
		return posting.EncryptedShare{}, fmt.Errorf("store: segment %d read at %d: %w", e.seg, e.off, err)
	}
	return decodeUpsertAt(buf[:], lid, e.gid)
}

// readEntries reads back the payloads for entries[from:end) of dl with
// reads coalesced per segment: entries sorted by file position are
// merged into spans when the gap between adjacent records is small, so
// a list written contiguously (ingest, post-compaction) costs O(1)
// syscalls while a scattered one degrades gracefully.
func (d *Disk) readEntries(dl *diskList, lid merging.ListID, from, end int) ([]posting.EncryptedShare, error) {
	out := make([]posting.EncryptedShare, end-from)
	order := make([]int, end-from)
	for i := range order {
		order[i] = from + i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := dl.entries[order[a]], dl.entries[order[b]]
		if ea.seg != eb.seg {
			return ea.seg < eb.seg
		}
		return ea.off < eb.off
	})
	var buf []byte
	for i := 0; i < len(order); {
		first := dl.entries[order[i]]
		spanStart := int64(first.off)
		spanEnd := spanStart + segUpsertSize
		j := i + 1
		for j < len(order) {
			e := dl.entries[order[j]]
			if e.seg != first.seg {
				break
			}
			recEnd := int64(e.off) + segUpsertSize
			if int64(e.off) > spanEnd+segReadGap || recEnd-spanStart > segReadSpan {
				break
			}
			if recEnd > spanEnd {
				spanEnd = recEnd
			}
			j++
		}
		if n := spanEnd - spanStart; int64(cap(buf)) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		if _, err := d.segs[first.seg].ReadAt(buf, spanStart); err != nil {
			return nil, fmt.Errorf("store: segment %d read at %d: %w", first.seg, spanStart, err)
		}
		for ; i < j; i++ {
			e := dl.entries[order[i]]
			rec := buf[int64(e.off)-spanStart:]
			sh, err := decodeUpsertAt(rec, lid, e.gid)
			if err != nil {
				return nil, err
			}
			out[order[i]-from] = sh
		}
	}
	return out, nil
}

// loadList materializes a whole list under the write lock, admitting it
// to the cache when it fits the budget. Returns the shares in stored
// order; the slice is the cached copy when admitted (callers copy out).
func (d *Disk) loadList(dl *diskList, lid merging.ListID) ([]posting.EncryptedShare, bool) {
	shares, err := d.readEntries(dl, lid, 0, len(dl.entries))
	if err != nil {
		panic(fmt.Sprintf("store: disk read: %v", err))
	}
	if n := len(shares) * shareBytes; d.opt.CacheBytes > 0 && n <= d.opt.CacheBytes {
		dl.shares = shares
		dl.lruElem = d.lru.PushFront(lid)
		d.cachedBytes += n
		d.evict()
		return shares, true
	}
	return shares, false
}

// Scan implements Store.
func (d *Disk) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	d.mu.RLock()
	dl := d.lists[lid]
	if dl == nil {
		d.mu.RUnlock()
		return nil
	}
	if dl.shares != nil {
		out := filterShares(dl.shares, keep, false)
		d.mu.RUnlock()
		return out
	}
	d.mu.RUnlock()
	// Miss: re-enter with the write lock to materialize and admit.
	d.mu.Lock()
	defer d.mu.Unlock()
	dl = d.lists[lid]
	if dl == nil {
		return nil
	}
	if dl.shares != nil {
		return filterShares(dl.shares, keep, false)
	}
	shares, cached := d.loadList(dl, lid)
	return filterShares(shares, keep, !cached)
}

// List implements Store.
func (d *Disk) List(lid merging.ListID) []posting.EncryptedShare {
	return d.Scan(lid, nil)
}

// ScanRange implements Store. A window read on a non-resident list
// fetches only the window's records — paged top-k reads never pull a
// whole cold list into memory.
func (d *Disk) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (shares []posting.EncryptedShare, total int, next uint8) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	dl := d.lists[lid]
	if dl == nil {
		return nil, 0, 0
	}
	total = len(dl.entries)
	if from < 0 {
		from = 0
	}
	if n < 0 {
		n = 0
	}
	end := from + n
	if end > total || end < from { // overflow-safe clamp
		end = total
	}
	if from > total {
		from = total
	}
	if dl.shares != nil {
		shares = filterShares(dl.shares[from:end], keep, false)
	} else if from < end {
		window, err := d.readEntries(dl, lid, from, end)
		if err != nil {
			panic(fmt.Sprintf("store: disk read: %v", err))
		}
		shares = filterShares(window, keep, true)
	}
	if end < total {
		next = posting.ImpactOf(dl.entries[end].gid)
	}
	return shares, total, next
}

// Keys implements Store.
func (d *Disk) Keys() map[merging.ListID][]posting.GlobalID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[merging.ListID][]posting.GlobalID, len(d.lists))
	for lid, dl := range d.lists {
		ids := make([]posting.GlobalID, len(dl.entries))
		for i, e := range dl.entries {
			ids[i] = e.gid
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out[lid] = ids
	}
	return out
}

// ListLen implements Store.
func (d *Disk) ListLen(lid merging.ListID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if dl := d.lists[lid]; dl != nil {
		return len(dl.entries)
	}
	return 0
}

// ListLengths implements Store.
func (d *Disk) ListLengths() map[merging.ListID]int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[merging.ListID]int, len(d.lists))
	for lid, dl := range d.lists {
		out[lid] = len(dl.entries)
	}
	return out
}

// TotalElements implements Store.
func (d *Disk) TotalElements() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.elems
}
