package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/wal"
)

// logName is the Disk engine's log file in its directory.
const logName = "seg-00000001.zseg"

// engineState renders every observable of a store as one string: totals,
// lengths, and each list's exact stored order. Two engines (or one
// engine before and after recovery) are equivalent iff their states
// compare equal.
func engineState(st store.Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d lengths=%v", st.TotalElements(), st.ListLengths())
	lids := make([]merging.ListID, 0)
	for lid := range st.ListLengths() {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	for _, lid := range lids {
		fmt.Fprintf(&b, "\n%d: %v", lid, st.Scan(lid, nil))
	}
	return b.String()
}

// sortedIDs lists one list's global IDs in ascending order.
func sortedIDs(st store.Store, lid merging.ListID) []posting.GlobalID {
	var ids []posting.GlobalID
	for _, s := range st.Scan(lid, nil) {
		ids = append(ids, s.GlobalID)
	}
	slices.Sort(ids)
	return ids
}

// seedDisk applies a representative mixed history: multi-bucket upserts
// across several lists, replacements, deletes, a drop, and a resharing
// round.
func seedDisk(t *testing.T, st store.Store) {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	for lid := merging.ListID(1); lid <= 6; lid++ {
		var batch []posting.EncryptedShare
		for j := 0; j < 40; j++ {
			batch = append(batch, tagged(uint64(int(lid)*1000+j), uint8(r.Intn(posting.ImpactBuckets)), uint32(1+r.Intn(3))))
		}
		st.Upsert(lid, batch)
	}
	st.Upsert(2, []posting.EncryptedShare{tagged(2005, 3, 9)}) // replace
	for j := 0; j < 10; j++ {
		gid := sortedIDs(st, 3)[j]
		st.DeleteIf(3, gid, nil)
	}
	st.DropList(6)
	gid := sortedIDs(st, 1)[0]
	if err := st.ApplyDeltas(map[merging.ListID]map[posting.GlobalID]field.Element{
		1: {gid: field.New(12345)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReopenRestoresState(t *testing.T) {
	d := newTestDisk(t)
	seedDisk(t, d)
	want := engineState(d)
	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := engineState(d); got != want {
		t.Fatalf("state after reopen diverged:\n got: %s\nwant: %s", got, want)
	}
	if err := store.CheckInvariants(d); err != nil {
		t.Fatal(err)
	}
	// A fresh OpenDisk of the same directory must agree too.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := store.OpenDisk(d.Dir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := engineState(d2); got != want {
		t.Fatalf("state after fresh open diverged:\n got: %s\nwant: %s", got, want)
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	d := newTestDisk(t)
	seedDisk(t, d)
	want := engineState(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the log by hand: a kill mid-append leaves a frame cut short.
	logPath := filepath.Join(d.Dir(), logName)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := wal.TornFrame(128)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(logPath)

	d2, err := store.OpenDisk(d.Dir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := engineState(d2); got != want {
		t.Fatalf("torn tail changed recovered state:\n got: %s\nwant: %s", got, want)
	}
	after, _ := os.Stat(logPath)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", after.Size(), before.Size()-int64(len(torn)))
	}
	// Appends after recovery must themselves survive a reopen.
	d2.Upsert(9, []posting.EncryptedShare{tagged(42, 5, 1)})
	want2 := engineState(d2)
	if err := d2.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := engineState(d2); got != want2 {
		t.Fatalf("post-recovery append lost:\n got: %s\nwant: %s", got, want2)
	}
}

// TestDiskCutsOnlyACrashTail: open cuts damage a crash can leave (at
// most SegmentBytes unsynced, or one longer frame at the end) and
// refuses, changing no file, damage with more than that after it: a
// bit flip in an early frame must not silently drop every acknowledged
// frame after it.
func TestDiskCutsOnlyACrashTail(t *testing.T) {
	const bound = 1 << 10
	opt := store.DiskOptions{SegmentBytes: bound}
	// write opens a fresh store, runs fill, closes it and returns the
	// store's directory, the log path and its bytes.
	write := func(t *testing.T, fill func(d *store.Disk)) (string, string, []byte) {
		t.Helper()
		dir := t.TempDir()
		d, err := store.OpenDisk(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		fill(d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, logName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path, data
	}

	t.Run("early flip refused", func(t *testing.T) {
		dir, path, data := write(t, func(d *store.Disk) { seedDisk(t, d) })
		if len(data) < 4*bound {
			t.Fatalf("seeded log is %d bytes, want well over the %d-byte bound", len(data), bound)
		}
		data[20] ^= 0x01 // inside the first frame's payload
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirDigest(t, dir)
		d, err := store.OpenDisk(dir, opt)
		if err == nil {
			d.Close()
			t.Fatal("OpenDisk cut a log corrupt in its first frame")
		}
		if !strings.Contains(err.Error(), "offset 0") {
			t.Errorf("error %q does not name the corrupt frame's offset", err)
		}
		if after := dirDigest(t, dir); after != before {
			t.Fatal("refused open changed the directory")
		}
	})

	t.Run("long last frame cut", func(t *testing.T) {
		var want string
		dir, path, data := write(t, func(d *store.Disk) {
			d.Upsert(1, []posting.EncryptedShare{tagged(1, 2, 1)})
			want = engineState(d)
			var batch []posting.EncryptedShare
			for j := uint64(2); j < 200; j++ {
				batch = append(batch, tagged(j, 2, 1))
			}
			d.Upsert(2, batch) // one frame, several times the bound
		})
		for _, damage := range []func([]byte) []byte{
			func(b []byte) []byte { return b[:len(b)-100] },           // torn
			func(b []byte) []byte { b[len(b)-100] ^= 0x01; return b }, // corrupt
		} {
			if err := os.WriteFile(path, damage(slices.Clone(data)), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := store.OpenDisk(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := engineState(d); got != want {
				t.Fatalf("recovered state:\n got: %s\nwant: %s", got, want)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestDiskSkipTornTruncateLosesData proves the deliberately re-enabled
// bug shape (replay stops at the tear but leaves the file untruncated)
// actually loses acknowledged writes — the behavior the simulator's
// non-vacuity smoke test must catch — and that the correct path does
// not, under the identical injected tear.
func TestDiskSkipTornTruncateLosesData(t *testing.T) {
	for _, buggy := range []bool{false, true} {
		t.Run(fmt.Sprintf("skipTruncate=%v", buggy), func(t *testing.T) {
			d := newTestDisk(t)
			d.SetSimHooks(&store.DiskSimHooks{TearActiveTail: true, SkipTornTruncate: buggy})
			d.Upsert(1, []posting.EncryptedShare{tagged(1, 2, 1)})
			if err := d.Reopen(); err != nil { // tear injected, garbage handled (or not)
				t.Fatal(err)
			}
			d.Upsert(1, []posting.EncryptedShare{tagged(2, 2, 1)}) // lands after garbage if buggy
			if err := d.Reopen(); err != nil {
				t.Fatal(err)
			}
			got := d.TotalElements()
			if buggy && got == 2 {
				t.Fatal("bug shape armed but no data lost: the smoke test would be vacuous")
			}
			if !buggy && got != 2 {
				t.Fatalf("correct torn-tail handling lost data: %d elements, want 2", got)
			}
		})
	}
}

// TestDiskCrashMidCompaction crashes a compaction in its one window,
// the snapshot written but not renamed ("stage1"): the reopened store
// holds the state from before it, with no temp file left, and a clean
// compaction after that keeps the state too.
func TestDiskCrashMidCompaction(t *testing.T) {
	t.Run("stage1", func(t *testing.T) {
		d := newTestDisk(t)
		seedDisk(t, d)
		want := engineState(d)
		d.SetSimHooks(&store.DiskSimHooks{CrashCompaction: true})
		if err := d.Compact(); !errors.Is(err, store.ErrSimulatedCrash) {
			t.Fatalf("Compact = %v, want ErrSimulatedCrash", err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(d.Dir(), "*.tmp")); len(tmps) != 1 {
			t.Fatalf("crashed compaction left temp files %v, want its snapshot", tmps)
		}
		d.SetSimHooks(nil)
		if err := d.Reopen(); err != nil {
			t.Fatal(err)
		}
		if got := engineState(d); got != want {
			t.Fatalf("crashed compaction changed recovered state:\n got: %s\nwant: %s", got, want)
		}
		if tmps, _ := filepath.Glob(filepath.Join(d.Dir(), "*.tmp")); len(tmps) != 0 {
			t.Fatalf("compaction temp files survived reopen: %v", tmps)
		}
		// A clean compaction must now succeed and preserve the state.
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := engineState(d); got != want {
			t.Fatalf("post-crash compaction changed state:\n got: %s\nwant: %s", got, want)
		}
		if err := d.Reopen(); err != nil {
			t.Fatal(err)
		}
		if got := engineState(d); got != want {
			t.Fatalf("replaying the compacted log changed state:\n got: %s\nwant: %s", got, want)
		}
	})
}

// TestDiskAutoCompaction churns one keyspace so most of the log is
// garbage and verifies compaction fires on its own, reclaims the space,
// and never changes the observable state (mirrored against a one-stripe Sharded).
func TestDiskAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{
		SegmentBytes:    8 << 10,
		CompactMinBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mem := store.NewSharded(1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 6000; i++ {
		lid := merging.ListID(r.Intn(8))
		// Bucket derived from the sequence so the keyspace is small (8
		// lists x 64 ids): churn is replacements and real deletes, which
		// is what makes the log mostly garbage.
		seq := uint64(r.Intn(64))
		s := tagged(seq, uint8(seq%posting.ImpactBuckets), 1)
		if r.Intn(3) > 0 {
			d.Upsert(lid, []posting.EncryptedShare{s})
			mem.Upsert(lid, []posting.EncryptedShare{s})
		} else {
			df, dd := d.DeleteIf(lid, s.GlobalID, nil)
			mf, md := mem.DeleteIf(lid, s.GlobalID, nil)
			if df != mf || dd != md {
				t.Fatalf("op %d: DeleteIf diverged", i)
			}
		}
	}
	st := d.Stats()
	if st.Compactions == 0 {
		t.Fatal("churn never triggered auto-compaction")
	}
	if st.DiskBytes >= 2*(st.LiveBytes+16<<10) {
		t.Fatalf("log not reclaimed: %d disk bytes for %d live", st.DiskBytes, st.LiveBytes)
	}
	if got, want := engineState(d), engineState(mem); got != want {
		t.Fatalf("compacted state diverged from memory:\n got: %s\nwant: %s", got, want)
	}
	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got, want := engineState(d), engineState(mem); got != want {
		t.Fatalf("replayed compacted state diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestDiskCacheBudget reads back, whole and by window, every list of a
// store that holds many, each exactly as it was written.
func TestDiskCacheBudget(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := map[merging.ListID][]posting.EncryptedShare{}
	for lid := merging.ListID(0); lid < 32; lid++ {
		var batch []posting.EncryptedShare
		for j := 0; j < 20; j++ {
			batch = append(batch, tagged(uint64(int(lid)*100+j), uint8(j%posting.ImpactBuckets), 1))
		}
		d.Upsert(lid, batch)
		want[lid] = d.Scan(lid, nil)
	}
	for lid, w := range want {
		got := d.Scan(lid, nil)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("list %d read back wrong", lid)
		}
		gotW, total, _ := d.ScanRange(lid, 5, 10, nil)
		if total != len(w) || fmt.Sprint(gotW) != fmt.Sprint(w[5:15]) {
			t.Fatalf("list %d window read wrong", lid)
		}
	}
}

// TestDiskReadFaultIsAnError cuts the log to nothing behind an open
// engine. Nothing reads the log after open, so Scan, ScanRange and
// DeleteIf with an allow answer exactly as before the cut, with no
// panic, and a delete still reaches the log: a Reopen replays what the
// file then holds, the one delete frame, and finds an empty store.
// After Close a read finds no lists.
func TestDiskReadFaultIsAnError(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []posting.EncryptedShare
	for j := 0; j < 500; j++ {
		batch = append(batch, tagged(uint64(j), uint8(j%posting.ImpactBuckets), uint32(j%3)))
	}
	d.Upsert(1, batch)
	victim := batch[7]
	var vetoed posting.EncryptedShare
	veto := func(s posting.EncryptedShare) bool { vetoed = s; return false }
	read := func() string {
		window, total, next := d.ScanRange(1, 100, 50, nil)
		found, deleted := d.DeleteIf(1, victim.GlobalID, veto)
		return fmt.Sprint(d.Scan(1, nil), window, total, next, found, deleted, vetoed)
	}
	want := read()
	if err := os.Truncate(filepath.Join(dir, logName), 0); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != want {
		t.Fatalf("reads after the cut differ from before it:\n got: %s\nwant: %s", got, want)
	}
	if vetoed != victim {
		t.Fatalf("allow saw %+v, want the stored %+v", vetoed, victim)
	}
	if found, deleted := d.DeleteIf(1, victim.GlobalID, func(posting.EncryptedShare) bool { return true }); !found || !deleted {
		t.Fatalf("DeleteIf after the cut = %v, %v, want a delete", found, deleted)
	}
	if n := listLen(d, 1); n != len(batch)-1 {
		t.Fatalf("list holds %d after the delete, want %d", n, len(batch)-1)
	}
	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if n := d.TotalElements(); n != 0 {
		t.Fatalf("replay of the cut log found %d elements, want none", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.Scan(1, nil); got != nil {
		t.Fatalf("Scan after Close = %d shares, want none", len(got))
	}
	if got, total, _ := d.ScanRange(1, 0, 10, nil); got != nil || total != 0 {
		t.Fatalf("ScanRange after Close = %d shares of %d, want none", len(got), total)
	}
}

// TestDiskReadsRaceAppendsAndCompaction runs Scan and ScanRange against
// writers whose churn fsyncs at a small SegmentBytes and auto-compacts
// the log, so reads of the table race appends, fsyncs and compaction's
// snapshot of the table; the run ends with Close under the readers.
// Each writer owns its lists and feeds a Sharded the same writes, so the
// contents must end up equal. Every share a reader gets must be one a
// writer stored under its global ID.
func TestDiskReadsRaceAppendsAndCompaction(t *testing.T) {
	const writers, listsPer = 2, 4
	ops := 3000
	if testing.Short() {
		ops = 1000
	}
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{
		SegmentBytes:    4 << 10,
		CompactMinBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := store.NewSharded(1)
	// y carries the global ID it was stored under, and a version.
	y := func(gid posting.GlobalID, version int) uint64 { return uint64(gid)%1_000_003<<8 | uint64(version&0xff) }
	check := func(shares []posting.EncryptedShare) {
		for _, s := range shares {
			if s.Y.Uint64()>>8 != uint64(s.GlobalID)%1_000_003 {
				t.Errorf("read share %d with value %d, stored under another element", s.GlobalID, s.Y.Uint64())
				return
			}
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lid := merging.ListID(rng.Intn(writers * listsPer))
				check(d.Scan(lid, func(s posting.EncryptedShare) bool { return s.Group != 2 }))
				shares, _, _ := d.ScanRange(lid, rng.Intn(64), 1+rng.Intn(32), nil)
				check(shares)
			}
		}(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				lid := merging.ListID(w*listsPer + rng.Intn(listsPer))
				switch seq := uint64(rng.Intn(96)); {
				case rng.Intn(4) > 0:
					var batch []posting.EncryptedShare
					for j := uint64(0); j < 1+seq%4; j++ {
						gid := posting.TagImpact(posting.GlobalID(seq+j), uint8((seq+j)%posting.ImpactBuckets))
						batch = append(batch, sh(gid, uint32(seq%4), y(gid, i)))
					}
					d.Upsert(lid, batch)
					ref.Upsert(lid, batch)
				case i%200 == 199:
					d.DropList(lid)
					ref.DropList(lid)
				default:
					gid := posting.TagImpact(posting.GlobalID(seq), uint8(seq%posting.ImpactBuckets))
					d.DeleteIf(lid, gid, nil)
					ref.DeleteIf(lid, gid, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := d.Stats(); st.Compactions == 0 {
		t.Errorf("churn never compacted the log: %+v", st)
	}
	if got, want := engineState(d), engineState(ref); got != want {
		t.Errorf("disk diverged from the reference:\n got: %s\nwant: %s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Error(err)
	}
	close(stop)
	readers.Wait()
}

// TestDiskSyncBoundary pins DiskOptions.Sync: mutations below the
// SegmentBytes bound never fsync, one Sync call covers every frame
// written before it, an idle boundary is free, an ApplyDeltas round is
// its own boundary, and with the option off a boundary never fsyncs.
// It also pins the SegmentBytes bound with Sync off: one share costs no
// fsync, and over several bounds' worth of one-share upserts no more
// than the bound is ever written past the last fsync.
func TestDiskSyncBoundary(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	expect := func(what string, want int) {
		t.Helper()
		if got := d.Syncs(); got != want {
			t.Fatalf("%s: %d fsyncs, want %d", what, got, want)
		}
	}
	for lid := merging.ListID(1); lid <= 4; lid++ {
		var batch []posting.EncryptedShare
		for j := 0; j < 60; j++ {
			batch = append(batch, tagged(uint64(int(lid)*1000+j), 3, 1))
		}
		d.Upsert(lid, batch)
	}
	d.DeleteIf(1, sortedIDs(d, 1)[0], nil)
	d.DropList(4)
	expect("mutations without a boundary", 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	expect("first boundary", 1)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	expect("idle boundary", 1)
	if err := d.ApplyDeltas(map[merging.ListID]map[posting.GlobalID]field.Element{
		2: {sortedIDs(d, 2)[0]: field.New(5)},
	}); err != nil {
		t.Fatal(err)
	}
	expect("resharing round", 2)

	// With Sync off the boundary costs nothing: no fsync below the bound.
	const bound = 1 << 10
	off, err := store.OpenDisk(t.TempDir(), store.DiskOptions{SegmentBytes: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	off.Upsert(1, []posting.EncryptedShare{tagged(1, 3, 1)})
	if err := off.Sync(); err != nil || off.Syncs() != 0 {
		t.Fatalf("Sync-off boundary: err %v, %d fsyncs, want none", err, off.Syncs())
	}
	// An fsync comes before the upsert that would cross the bound, so
	// the log was synced up to where it stood before that upsert.
	synced, syncs := int64(0), 0
	for seq := uint64(2); off.Stats().DiskBytes < 5*bound; seq++ {
		before := off.Stats().DiskBytes
		off.Upsert(merging.ListID(seq%5), []posting.EncryptedShare{tagged(seq, 3, 1)})
		if off.Syncs() > syncs {
			synced, syncs = before, off.Syncs()
		}
		if unsynced := off.Stats().DiskBytes - synced; unsynced > bound {
			t.Fatalf("after share %d: %d bytes past the last fsync, bound %d", seq, unsynced, bound)
		}
	}
	if syncs < 4 {
		t.Fatalf("%d fsyncs over five bounds' worth of appends, want at least 4", syncs)
	}
}

// TestDiskSyncAfterClose: Close fsyncs everything, so a batch boundary
// that straggles in after it has nothing to do and returns nil.
func TestDiskSyncAfterClose(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Upsert(1, []posting.EncryptedShare{tagged(1, 3, 1)})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil", err)
	}
}

// TestDiskRefusesMultiSegmentLayout opens directories the multi-file
// log layout left: a second segment beside the first, or a compaction
// snapshot in place of it. OpenDisk must refuse each with an error
// naming the foreign segment and change no file, not even the temp file
// of a compaction, which an open removes. The one such directory that
// layout left with a whole log, its first segment beside the temp file
// of a crashed compaction, opens, and the temp file is removed.
func TestDiskRefusesMultiSegmentLayout(t *testing.T) {
	frames := segmentBytes(t)
	for name, files := range map[string][]string{
		"beside":  {logName, logName + ".tmp", "seg-00000002.zseg"},
		"instead": {"seg-00000002.zseg"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range files {
				if err := os.WriteFile(filepath.Join(dir, f), frames, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirDigest(t, dir)
			d, err := store.OpenDisk(dir, store.DiskOptions{})
			if err == nil {
				d.Close()
				t.Fatal("OpenDisk accepted a multi-segment directory")
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, "seg-00000002.zseg")) {
				t.Errorf("error %q does not name the foreign segment", err)
			}
			if after := dirDigest(t, dir); after != before {
				t.Fatalf("refused open changed the directory:\n got: %s\nwant: %s", after, before)
			}
		})
	}
	t.Run("crashed compaction", func(t *testing.T) {
		dir := t.TempDir()
		for _, f := range []string{logName, "seg-00000002.zseg.tmp"} {
			if err := os.WriteFile(filepath.Join(dir, f), frames, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if d.TotalElements() == 0 {
			t.Error("the log beside the temp file replayed empty")
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("directory holds %d files after open, want the log only", len(entries))
		}
	})
}

// dirDigest is the SHA-256 over the names and bytes of every file in
// dir, in name order.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSegmentFormatPinned pins the log's bytes: a fixed history
// (replacements, deletes, a drop, a resharing round), the compaction
// snapshot of it, and an append to that snapshot must hash to what the
// engine wrote before the log primitive moved into package wal. The
// history's file holds the bytes the multi-file layout split across its
// segments, and the snapshot those of that layout's snapshot segment
// without its leading reset frame. The snapshot writes each list in its
// stored order, so its hash, and the appended step's, which covers the
// snapshot too, pin the canonical order as well; the frames a mutation
// appends do not depend on it.
func TestSegmentFormatPinned(t *testing.T) {
	d := newTestDisk(t)
	seedDisk(t, d)
	for _, step := range []struct {
		name, want string
		run        func() error
	}{
		{"history", "34ea60b92a463a41f4618934effb26a99f561076ee83bb084550eede8bebb043", func() error { return nil }},
		{"compacted", "e1997086b3ee31f555c368e14ab4fc03c936827bdd98487dba1df5b731ed5201", d.Compact},
		{"appended", "c1972cab497fc1fc12c593947a62e04b496a47004755e650de5b6ee2f41a0478", func() error {
			d.Upsert(9, []posting.EncryptedShare{tagged(42, 5, 1), tagged(43, 0, 2)})
			d.DeleteIf(1, sortedIDs(d, 1)[3], nil)
			return nil
		}},
	} {
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		if got := dirDigest(t, d.Dir()); got != step.want {
			t.Errorf("%s: the store directory hashes to %s, want %s", step.name, got, step.want)
		}
	}
}

func TestNewEngineSelects(t *testing.T) {
	for _, name := range []string{"", "sharded"} {
		st, err := store.NewEngine(name, "")
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := st.(*store.Sharded); !ok || s.NumShards() != store.DefaultShards() {
			t.Errorf("NewEngine(%q) = %T, want the default Sharded", name, st)
		}
	}
	dir := t.TempDir()
	st, err := store.NewEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := st.(*store.Disk)
	if !ok {
		t.Fatalf("NewEngine(disk) = %T", st)
	}
	if d.Dir() != dir {
		t.Errorf("disk dir = %q, want %q", d.Dir(), dir)
	}
	d.Close()
	for _, name := range []string{"mmap", "memory"} {
		if _, err := store.NewEngine(name, ""); err == nil {
			t.Errorf("unknown engine %q accepted", name)
		}
	}
}
