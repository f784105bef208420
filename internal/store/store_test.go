package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"zerber/internal/dht"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// each runs a subtest against every Store implementation, so the
// interface contract is enforced uniformly on the sharded engine and the
// log-structured disk engine. The sharded rows span its layouts: the
// one-lock reference, 2 stripes, the default, and ("memory") the widest
// layout NewSharded allows, 512 stripes, where almost every stripe is
// empty, so ApplyDeltas' lock ordering and the per-stripe counters walk
// sparse stripes. The disk rows shrink segment, cache, and compaction
// thresholds so rollover, cache misses, and auto-compaction all fire
// inside these small tests. The dht row is a Slot routing over three
// one-lock node stores: the contract holds for the composition too.
func each(t *testing.T, run func(t *testing.T, st store.Store)) {
	t.Helper()
	for _, impl := range []struct {
		name string
		mk   func(t *testing.T) store.Store
	}{
		{"memory", func(t *testing.T) store.Store { return store.NewSharded(512) }},
		{"sharded-1", func(t *testing.T) store.Store { return store.NewSharded(1) }},
		{"sharded-2", func(t *testing.T) store.Store { return store.NewSharded(2) }},
		{"sharded-default", func(t *testing.T) store.Store { return store.NewSharded(0) }},
		{"disk", func(t *testing.T) store.Store { return newTestDisk(t) }},
		{"disk-nocache", func(t *testing.T) store.Store {
			d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{CacheBytes: -1, SegmentBytes: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
		{"dht", func(t *testing.T) store.Store {
			slot := dht.NewSlot(0, "n0", store.NewSharded(1))
			for _, name := range []string{"n1", "n2"} {
				if err := slot.AddNode(name, store.NewSharded(1)); err != nil {
					t.Fatal(err)
				}
			}
			return slot
		}},
	} {
		t.Run(impl.name, func(t *testing.T) { run(t, impl.mk(t)) })
	}
}

// newTestDisk opens a Disk engine with tiny thresholds in a per-test dir.
func newTestDisk(t *testing.T) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{
		SegmentBytes:    4 << 10,
		CacheBytes:      2 << 10,
		CompactMinBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func sh(gid posting.GlobalID, group uint32, y uint64) posting.EncryptedShare {
	return posting.EncryptedShare{GlobalID: gid, Group: group, Y: field.New(y)}
}

// listLen is one list's length: the total of a zero-width window.
func listLen(st store.Store, lid merging.ListID) int {
	_, n, _ := st.ScanRange(lid, 0, 0, nil)
	return n
}

func TestUpsertAppendsAndReplaces(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		if added := st.Upsert(1, []posting.EncryptedShare{sh(10, 1, 100), sh(11, 1, 110)}); added != 2 {
			t.Fatalf("added = %d, want 2", added)
		}
		// Replacing an existing global ID must not append and must keep
		// the element's position.
		if added := st.Upsert(1, []posting.EncryptedShare{sh(10, 1, 999), sh(12, 1, 120)}); added != 1 {
			t.Fatalf("added = %d, want 1", added)
		}
		got := st.Scan(1, nil)
		if len(got) != 3 {
			t.Fatalf("list length = %d, want 3", len(got))
		}
		want := []posting.EncryptedShare{sh(10, 1, 999), sh(11, 1, 110), sh(12, 1, 120)}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("list[%d] = %+v, want %+v (ascending global IDs within a run)", i, got[i], want[i])
			}
		}
		if st.TotalElements() != 3 {
			t.Errorf("TotalElements = %d, want 3", st.TotalElements())
		}
	})
}

// TestUpsertBatchReplacesExistingGlobalIDs: a batch that mixes present
// and new IDs, as a migrated list does, replaces the one and inserts the
// other.
func TestUpsertBatchReplacesExistingGlobalIDs(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(5, []posting.EncryptedShare{sh(1, 1, 10), sh(2, 1, 20)})
		// A migrated list carrying an already-present global ID must
		// replace the stored share, not duplicate the element.
		st.Upsert(5, []posting.EncryptedShare{sh(2, 1, 21), sh(3, 1, 30)})
		got := st.Scan(5, nil)
		if len(got) != 3 {
			t.Fatalf("list length = %d, want 3", len(got))
		}
		if got[1] != sh(2, 1, 21) {
			t.Errorf("element 2 = %+v, want replaced share y=21 in place", got[1])
		}
		if listLen(st, 5) != 3 || st.TotalElements() != 3 {
			t.Errorf("length=%d TotalElements=%d, want 3/3", listLen(st, 5), st.TotalElements())
		}
		// An empty batch into nothing must not materialize a list.
		st.Upsert(77, nil)
		if _, present := st.ListLengths()[77]; present {
			t.Error("empty Upsert materialized a list")
		}
	})
}

func TestDeleteLastElementCleansUpList(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(3, []posting.EncryptedShare{sh(1, 1, 1)})
		found, deleted := st.DeleteIf(3, 1, nil)
		if !found || !deleted {
			t.Fatalf("DeleteIf = (%v, %v), want (true, true)", found, deleted)
		}
		// Both the list and its position index must be gone: an emptied
		// list disappears from the adversary view and so from the
		// resharing inventory.
		if _, present := st.ListLengths()[3]; present {
			t.Error("emptied list still in ListLengths")
		}
		if listLen(st, 3) != 0 || st.TotalElements() != 0 {
			t.Errorf("length=%d TotalElements=%d, want 0/0", listLen(st, 3), st.TotalElements())
		}
		// The key must be reusable: a fresh insert starts a fresh list.
		if added := st.Upsert(3, []posting.EncryptedShare{sh(1, 1, 2)}); added != 1 {
			t.Fatalf("re-insert after cleanup added %d, want 1", added)
		}
		if got := st.Scan(3, nil); len(got) != 1 || got[0] != sh(1, 1, 2) {
			t.Errorf("re-inserted list = %+v", got)
		}
	})
}

func TestDeleteIfSwapKeepsPositionsConsistent(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(9, []posting.EncryptedShare{sh(1, 1, 1), sh(2, 1, 2), sh(3, 1, 3)})
		// Removing the middle element closes the gap...
		if _, deleted := st.DeleteIf(9, 2, nil); !deleted {
			t.Fatal("delete of present element failed")
		}
		got := st.Scan(9, nil)
		if len(got) != 2 || got[0] != sh(1, 1, 1) || got[1] != sh(3, 1, 3) {
			t.Fatalf("after the delete: %+v", got)
		}
		// ...and the element after it stays addressable at its new position.
		if _, deleted := st.DeleteIf(9, 3, nil); !deleted {
			t.Fatal("moved element no longer addressable")
		}
		if got := st.Scan(9, nil); len(got) != 1 || got[0] != sh(1, 1, 1) {
			t.Fatalf("after second delete: %+v", got)
		}
	})
}

func TestDeleteIfVeto(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(4, []posting.EncryptedShare{sh(7, 2, 70)})
		var seen posting.EncryptedShare
		found, deleted := st.DeleteIf(4, 7, func(s posting.EncryptedShare) bool {
			seen = s
			return false
		})
		if !found || deleted {
			t.Fatalf("DeleteIf = (%v, %v), want (true, false)", found, deleted)
		}
		if seen != sh(7, 2, 70) {
			t.Errorf("allow saw %+v, want the stored share", seen)
		}
		if listLen(st, 4) != 1 {
			t.Error("vetoed delete removed the element")
		}
		found, _ = st.DeleteIf(4, 99, func(posting.EncryptedShare) bool {
			t.Error("allow called for a missing element")
			return true
		})
		if found {
			t.Error("missing element reported found")
		}
	})
}

func TestScanFiltersInStoredOrder(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(6, []posting.EncryptedShare{sh(1, 1, 1), sh(2, 2, 2), sh(3, 1, 3)})
		got := st.Scan(6, func(s posting.EncryptedShare) bool { return s.Group == 1 })
		if len(got) != 2 || got[0].GlobalID != 1 || got[1].GlobalID != 3 {
			t.Errorf("filtered scan = %+v", got)
		}
		if st.Scan(6, func(posting.EncryptedShare) bool { return false }) != nil {
			t.Error("all-rejected scan must be nil")
		}
		if st.Scan(99, nil) != nil {
			t.Error("scan of unknown list must be nil")
		}
		// What a scan returns is the caller's: scribbling over it must
		// not reach the store, filtered or not.
		for _, keep := range []func(posting.EncryptedShare) bool{nil, func(s posting.EncryptedShare) bool { return s.Group == 1 }} {
			got := st.Scan(6, keep)
			for i := range got {
				got[i] = sh(77, 7, 7)
			}
			if again := st.Scan(6, nil); len(again) != 3 || again[0] != sh(1, 1, 1) {
				t.Errorf("store changed through a scan result: %+v", again)
			}
		}
	})
}

// poolsRecycle reports whether a sync.Pool hands back what was just put
// into it. Under the race detector it drops a quarter of all puts at
// random, so a budget that counts on a recycled buffer cannot be
// measured there.
func poolsRecycle() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

// TestScanAllocatesOnce is the read filter's budget: a group-filtered
// scan or window of a resident list is one allocation, the result, sized
// to what it returns — not a slice grown through append, and not one
// sized to the list and half used. In bytes: at most a quarter more than
// the shares returned occupy (the allocator rounds sizes up).
func TestScanAllocatesOnce(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		if _, disk := st.(*store.Disk); disk {
			t.Skip("disk reads allocate their own buffers")
		}
		shares := make([]posting.EncryptedShare, 2000)
		for i := range shares {
			shares[i] = sh(posting.GlobalID(i+1), uint32(i%2), uint64(i))
		}
		st.Upsert(4, shares)
		keep := func(s posting.EncryptedShare) bool { return s.Group == 1 }
		// The collector may empty the engine's scratch pool, and a scratch
		// parked in one P's private slot is invisible from another; hold
		// the collector off and stay on one P (as testing.AllocsPerRun
		// does) so the steady state is what gets measured.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if !poolsRecycle() {
			t.Skip("sync.Pool is dropping buffers (race detector): no steady state to measure")
		}
		for name, tc := range map[string]struct {
			scan func() int
			want int
		}{
			"Scan": {func() int { return len(st.Scan(4, keep)) }, 1000},
			// A window across the two groups' runs, half in each.
			"ScanRange": {func() int { got, _, _ := st.ScanRange(4, 744, 512, keep); return len(got) }, 256},
		} {
			var n int
			if allocs := testing.AllocsPerRun(10, func() { n = tc.scan() }); allocs > 1 || n != tc.want {
				t.Errorf("filtered %s: %v allocations for %d shares, want 1 for %d", name, allocs, n, tc.want)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				tc.scan()
			}
			runtime.ReadMemStats(&after)
			returned := float64(tc.want) * float64(unsafe.Sizeof(posting.EncryptedShare{}))
			if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > 1.25*returned {
				t.Errorf("filtered %s: %.0f bytes allocated to return %.0f, want at most 1.25x", name, got, returned)
			}
		}
	})
}

// TestScanResultsOutliveTheScratch: the buffer a scan filters into is
// recycled, its result is not. Goroutines scan with different filters at
// once and hold every result while later scans — their own and the
// others' — reuse the scratch; each result must still be exactly its
// filter's shares at the end. Under -race a result aliasing the scratch
// is a report as well.
func TestScanResultsOutliveTheScratch(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		const n, groups = 600, 4
		shares := make([]posting.EncryptedShare, n)
		for i := range shares {
			shares[i] = sh(posting.GlobalID(i+1), uint32(i%groups), uint64(i))
		}
		st.Upsert(3, shares)
		st.Upsert(8, shares[:n/3])
		var wg sync.WaitGroup
		for g := uint32(0); g < groups; g++ {
			wg.Add(1)
			go func(g uint32) {
				defer wg.Done()
				keep := func(s posting.EncryptedShare) bool { return s.Group == g }
				var held [][]posting.EncryptedShare
				for round := 0; round < 20; round++ {
					whole := st.Scan(3, keep)
					window, _, _ := st.ScanRange(3, round, n/2, keep)
					held = append(held, whole, window, st.Scan(8, keep))
				}
				for i, got := range held {
					for _, s := range got {
						if s.Group != g || s.Y != field.New(uint64(s.GlobalID-1)) {
							t.Errorf("group %d, result %d: holds %+v", g, i, s)
							return
						}
					}
					if want := map[int]int{0: n / groups, 2: n / 3 / groups}[i%3]; i%3 != 1 && len(got) != want {
						t.Errorf("group %d, result %d: %d shares, want %d", g, i, len(got), want)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestDropList(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(1, []posting.EncryptedShare{sh(1, 1, 1), sh(2, 1, 2)})
		st.Upsert(2, []posting.EncryptedShare{sh(3, 1, 3)})
		if n := st.DropList(1); n != 2 {
			t.Fatalf("DropList = %d, want 2", n)
		}
		if st.TotalElements() != 1 {
			t.Errorf("TotalElements = %d, want 1", st.TotalElements())
		}
		if n := st.DropList(1); n != 0 {
			t.Errorf("dropping an absent list = %d, want 0", n)
		}
	})
}

func TestApplyDeltasAllOrNothing(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		// Spread elements over several lists so the sharded store has to
		// coordinate multiple shards.
		for lid := merging.ListID(1); lid <= 4; lid++ {
			st.Upsert(lid, []posting.EncryptedShare{sh(posting.GlobalID(lid), 1, uint64(lid)*10)})
		}
		before := make(map[merging.ListID][]posting.EncryptedShare)
		for lid := merging.ListID(1); lid <= 4; lid++ {
			before[lid] = st.Scan(lid, nil)
		}
		// One addressed element (4 in list 4) is missing: nothing may move.
		deltas := map[merging.ListID]map[posting.GlobalID]field.Element{
			1: {1: field.New(5)},
			2: {2: field.New(5)},
			4: {99: field.New(5)},
		}
		err := st.ApplyDeltas(deltas)
		if !errors.Is(err, store.ErrMissing) {
			t.Fatalf("ApplyDeltas error = %v, want ErrMissing", err)
		}
		for lid := merging.ListID(1); lid <= 4; lid++ {
			got := st.Scan(lid, nil)
			for i := range got {
				if got[i] != before[lid][i] {
					t.Errorf("list %d element %d changed by failed delta round: %+v -> %+v",
						lid, i, before[lid][i], got[i])
				}
			}
		}
		// The valid round then applies everywhere.
		delete(deltas, 4)
		deltas[3] = map[posting.GlobalID]field.Element{3: field.New(7)}
		if err := st.ApplyDeltas(deltas); err != nil {
			t.Fatal(err)
		}
		if got := st.Scan(1, nil)[0].Y; got != field.Add(field.New(10), field.New(5)) {
			t.Errorf("list 1 share = %d after delta", got.Uint64())
		}
		if got := st.Scan(3, nil)[0].Y; got != field.Add(field.New(30), field.New(7)) {
			t.Errorf("list 3 share = %d after delta", got.Uint64())
		}
	})
}

// TestListLengthsInventory checks what the one inventory promises:
// ListLengths covers exactly the stored lists, with their lengths, and
// an emptied or dropped list vanishes from it.
func TestListLengthsInventory(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		st.Upsert(1, []posting.EncryptedShare{sh(5, 1, 1), sh(2, 1, 2), sh(9, 1, 3)})
		st.Upsert(2, []posting.EncryptedShare{sh(7, 1, 4)})
		st.Upsert(3, []posting.EncryptedShare{sh(8, 1, 5), sh(6, 1, 6)})
		// fmt prints maps in sorted key order.
		if got := fmt.Sprint(st.ListLengths()); got != "map[1:3 2:1 3:2]" {
			t.Fatalf("ListLengths = %s, want map[1:3 2:1 3:2]", got)
		}
		st.DeleteIf(2, 7, nil)
		st.DeleteIf(1, 5, nil)
		st.DropList(3)
		if got := fmt.Sprint(st.ListLengths()); got != "map[1:2]" {
			t.Fatalf("after emptying list 2 and dropping list 3: ListLengths = %s, want map[1:2]", got)
		}
	})
}

func TestConcurrentMixedStoreOps(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		var wg sync.WaitGroup
		const workers, opsPer = 8, 200
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < opsPer; i++ {
					lid := merging.ListID(r.Intn(16))
					gid := posting.GlobalID(w*100000 + i)
					st.Upsert(lid, []posting.EncryptedShare{sh(gid, 1, uint64(i))})
					st.Scan(lid, func(posting.EncryptedShare) bool { return true })
					st.ListLengths()
					st.TotalElements()
					if i%2 == 0 {
						if _, deleted := st.DeleteIf(lid, gid, nil); !deleted {
							t.Errorf("own element %d vanished", gid)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if got := st.TotalElements(); got != workers*opsPer/2 {
			t.Errorf("TotalElements = %d, want %d", got, workers*opsPer/2)
		}
		n := 0
		for _, l := range st.ListLengths() {
			n += l
		}
		if n != workers*opsPer/2 {
			t.Errorf("sum of ListLengths = %d, want %d", n, workers*opsPer/2)
		}
	})
}

func TestNewSelectsEngine(t *testing.T) {
	if got := store.NewSharded(1).NumShards(); got != 1 {
		t.Errorf("NewSharded(1) shards = %d, want the one-lock reference", got)
	}
	if got := store.NewSharded(0).NumShards(); got != store.DefaultShards() {
		t.Errorf("NewSharded(0) shards = %d, want default %d", got, store.DefaultShards())
	}
	if got := store.NewSharded(5).NumShards(); got != 8 {
		t.Errorf("NewSharded(5) shards = %d, want next power of two 8", got)
	}
}

// TestEnginesMatch replays one randomized operation history against the
// one-stripe reference, the default sharded engine, and the
// log-structured disk engine, and requires equal lists, element for
// element, and identical observable state — the engine-is-invisible half of
// the acceptance criteria at the store level. The history mixes
// impact-tagged inserts (so the bucket-major layout gets exercised, not
// just bucket 0), deletes, drops, valid and deliberately failing
// ApplyDeltas rounds (a failed round must leave every engine unchanged),
// and periodic disk Reopens so the comparison also proves the replayed
// layout equals the live one. A dht.Slot over one-lock node stores runs
// beside the engines while a node joins or leaves it every 250
// operations, so its lists migrate mid-history.
func TestEnginesMatch(t *testing.T) {
	mem := store.NewSharded(1)
	shd := store.NewSharded(0)
	dsk := newTestDisk(t)
	slot := dht.NewSlot(0, "n0", store.NewSharded(1))
	engines := []struct {
		name string
		st   store.Store
	}{{"memory", mem}, {"sharded", shd}, {"disk", dsk}, {"dht", slot}}

	r := rand.New(rand.NewSource(7))
	randGID := func() posting.GlobalID {
		return posting.TagImpact(posting.GlobalID(r.Intn(400)), uint8(r.Intn(posting.ImpactBuckets)))
	}
	// live tracks a sample of present elements so ApplyDeltas rounds can
	// address real keys.
	live := make(map[merging.ListID]map[posting.GlobalID]bool)
	note := func(lid merging.ListID, gid posting.GlobalID, present bool) {
		if present {
			if live[lid] == nil {
				live[lid] = make(map[posting.GlobalID]bool)
			}
			live[lid][gid] = true
		} else if live[lid] != nil {
			delete(live[lid], gid)
			if len(live[lid]) == 0 {
				delete(live, lid)
			}
		}
	}
	for i := 0; i < 3000; i++ {
		switch {
		case i%500 == 250:
			if err := slot.AddNode(fmt.Sprintf("j%d", i), store.NewSharded(1)); err != nil {
				t.Fatalf("op %d: join: %v", i, err)
			}
		case i%500 == 0 && i > 0:
			if err := slot.RemoveNode(slot.RingNodes()[0]); err != nil {
				t.Fatalf("op %d: leave: %v", i, err)
			}
		}
		lid := merging.ListID(r.Intn(32))
		gid := randGID()
		switch r.Intn(8) {
		case 0, 1, 2:
			s := sh(gid, uint32(1+r.Intn(3)), uint64(r.Intn(1<<20)))
			want := mem.Upsert(lid, []posting.EncryptedShare{s})
			for _, e := range engines[1:] {
				if got := e.st.Upsert(lid, []posting.EncryptedShare{s}); got != want {
					t.Fatalf("op %d: %s Upsert = %d, memory = %d", i, e.name, got, want)
				}
			}
			note(lid, s.GlobalID, true)
		case 3:
			batch := make([]posting.EncryptedShare, 1+r.Intn(5))
			for j := range batch {
				batch[j] = sh(randGID(), uint32(1+r.Intn(3)), uint64(r.Intn(1<<20)))
				note(lid, batch[j].GlobalID, true)
			}
			want := mem.Upsert(lid, batch)
			for _, e := range engines[1:] {
				if got := e.st.Upsert(lid, batch); got != want {
					t.Fatalf("op %d: %s batch Upsert = %d, memory = %d", i, e.name, got, want)
				}
			}
		case 4:
			mf, md := mem.DeleteIf(lid, gid, nil)
			for _, e := range engines[1:] {
				if f, del := e.st.DeleteIf(lid, gid, nil); f != mf || del != md {
					t.Fatalf("op %d: %s DeleteIf = (%v,%v), memory = (%v,%v)", i, e.name, f, del, mf, md)
				}
			}
			note(lid, gid, false)
		case 5:
			want := mem.DropList(lid)
			for _, e := range engines[1:] {
				if got := e.st.DropList(lid); got != want {
					t.Fatalf("op %d: %s DropList = %d, memory = %d", i, e.name, got, want)
				}
			}
			delete(live, lid)
		case 6:
			// A resharing round over up to three live elements; every
			// fourth round addresses a missing element too, and must then
			// mutate nothing anywhere.
			deltas := make(map[merging.ListID]map[posting.GlobalID]field.Element)
			n := 0
			for dlid, gids := range live {
				for dgid := range gids {
					if deltas[dlid] == nil {
						deltas[dlid] = make(map[posting.GlobalID]field.Element)
					}
					deltas[dlid][dgid] = field.New(uint64(r.Intn(1 << 16)))
					if n++; n >= 3 {
						break
					}
				}
				if n >= 3 {
					break
				}
			}
			if len(deltas) == 0 {
				continue
			}
			wantFail := i%4 == 0
			if wantFail {
				if deltas[lid] == nil {
					deltas[lid] = make(map[posting.GlobalID]field.Element)
				}
				deltas[lid][posting.GlobalID(1<<50)] = field.New(1)
			}
			for _, e := range engines {
				err := e.st.ApplyDeltas(deltas)
				if wantFail && !errors.Is(err, store.ErrMissing) {
					t.Fatalf("op %d: %s failing ApplyDeltas = %v, want ErrMissing", i, e.name, err)
				}
				if !wantFail && err != nil {
					t.Fatalf("op %d: %s ApplyDeltas: %v", i, e.name, err)
				}
			}
		case 7:
			if i%5 == 0 {
				// Kill and recover the disk engine mid-history: replay must
				// reconstruct the exact layout the live engines carry.
				if err := dsk.Reopen(); err != nil {
					t.Fatalf("op %d: disk reopen: %v", i, err)
				}
			}
		}
	}

	for _, e := range engines {
		if err := store.CheckInvariants(e.st); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	if nodes := slot.NodeNames(); len(nodes) < 2 || slot.Pending() != 0 {
		t.Fatalf("dht: nodes %v, %d pending; want a settled slot of several nodes", nodes, slot.Pending())
	}
	for _, name := range slot.NodeNames() {
		node, _ := slot.Node(name)
		if err := store.CheckInvariants(node); err != nil {
			t.Fatalf("dht node %s: %v", name, err)
		}
	}
	if err := dsk.Reopen(); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines[1:] {
		if mem.TotalElements() != e.st.TotalElements() {
			t.Fatalf("TotalElements: memory %d vs %s %d", mem.TotalElements(), e.name, e.st.TotalElements())
		}
		ml, el := mem.ListLengths(), e.st.ListLengths()
		// fmt prints maps in sorted key order, so string equality is map
		// equality here.
		if fmt.Sprint(ml) != fmt.Sprint(el) {
			t.Fatalf("ListLengths diverged: memory %v vs %s %v", ml, e.name, el)
		}
		for lid := range ml {
			a, b := mem.Scan(lid, nil), e.st.Scan(lid, nil)
			if !slices.Equal(a, b) {
				t.Fatalf("list %d: memory %v vs %s %v (a list's order is a function of its contents)", lid, a, e.name, b)
			}
			// Ranged windows must agree too — total, the next-bucket
			// bound, and the window contents.
			for _, from := range []int{0, len(a) / 2, len(a) - 1} {
				n := 1 + r.Intn(4)
				as, at, an := mem.ScanRange(lid, from, n, nil)
				bs, bt, bn := e.st.ScanRange(lid, from, n, nil)
				if at != bt || an != bn || fmt.Sprint(as) != fmt.Sprint(bs) {
					t.Fatalf("list %d ScanRange(%d,%d): memory (%v,%d,%d) vs %s (%v,%d,%d)",
						lid, from, n, as, at, an, e.name, bs, bt, bn)
				}
			}
		}
	}
}
