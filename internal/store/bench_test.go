package store_test

import (
	"math/rand"
	"runtime"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// BenchmarkScanFiltered is the server's half of an exact lookup in
// isolation: one group-filtered Scan of a 10,000-element list on the
// sharded engine, by a caller in 4 of the lists' 8 groups, so half is
// kept — the benchmark workloads' shape. It rotates over 64 lists with
// independently drawn groups: over one list scanned again and again the
// branch predictor learns the 10,000 outcomes and the caches hold the
// elements, which made every data-dependent branch in the filter look
// free (the same loop read 10 ns per element on one list and 22 over
// many). ns/element is per element read, not per element returned; B/op
// against the roughly 120,000 bytes returned shows what a scan allocates
// beyond its result.
func BenchmarkScanFiltered(b *testing.B) {
	const lists, n = 64, 10_000
	rng := rand.New(rand.NewSource(1))
	st := store.NewSharded(0)
	shares := make([]posting.EncryptedShare, n)
	for lid := merging.ListID(0); lid < lists; lid++ {
		for i := range shares {
			shares[i] = sh(posting.GlobalID(i+1), uint32(rng.Intn(8)), rng.Uint64()>>4)
		}
		st.Upsert(lid, shares)
	}
	table := auth.NewGroupTable()
	for _, g := range []auth.GroupID{0, 2, 5, 7} {
		table.Add("searcher", g)
	}
	memberOf := table.GroupSetOf("searcher")
	keep := func(s posting.EncryptedShare) bool { return memberOf.Has(auth.GroupID(s.Group)) }
	b.ReportAllocs()
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		kept += len(st.Scan(merging.ListID(i%lists), keep))
	}
	if per := kept / b.N; per < n*45/100 || per > n*55/100 {
		b.Fatalf("filter keeps %d of %d per scan, want about half", per, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/element")
}

// BenchmarkTableUpsertDelete is the store's half of a mutation: one op
// upserts one fresh share into a list and conditionally deletes that
// list's oldest, on the one-stripe engine (the table behind a single
// lock) holding 500,000 elements in 625 lists, the repository
// benchmark's server. Consecutive ops go to different lists and every
// global ID is random, so each keyed access misses the caches the way
// the elements of a shuffled payload do; on a handful of hot lists the
// per-list lookups this measures cost nothing.
func BenchmarkTableUpsertDelete(b *testing.B) {
	const lists, perList = 625, 800
	rng := rand.New(rand.NewSource(1))
	fresh := func() posting.EncryptedShare {
		tf := uint16(min(1/(1-rng.Float64()), 1023)) // the benchmark's power law
		gid := posting.TagImpact(posting.GlobalID(rng.Uint64()), posting.ImpactBucket(tf))
		return sh(gid, uint32(rng.Intn(8)), rng.Uint64()>>4)
	}
	st := store.NewSharded(1)
	resident := make([][]posting.GlobalID, lists) // per list, a ring whose oldest is at i/lists
	for lid := range resident {
		shares := make([]posting.EncryptedShare, perList)
		for i := range shares {
			shares[i] = fresh()
			resident[lid] = append(resident[lid], shares[i].GlobalID)
		}
		st.Upsert(merging.ListID(lid), shares)
	}
	incoming := make([]posting.EncryptedShare, 1<<16)
	for i := range incoming {
		incoming[i] = fresh()
	}
	allow := func(posting.EncryptedShare) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lid := i * 257 % lists
		in := incoming[i%len(incoming)]
		in.GlobalID += posting.GlobalID(i / len(incoming)) // never the same ID twice
		st.Upsert(merging.ListID(lid), []posting.EncryptedShare{in})
		oldest := &resident[lid][i/lists%perList]
		if _, deleted := st.DeleteIf(merging.ListID(lid), *oldest, allow); !deleted {
			b.Fatalf("op %d: list %d lost element %d", i, lid, *oldest)
		}
		*oldest = in.GlobalID
	}
	b.StopTimer()
	if got := st.TotalElements(); got != lists*perList {
		b.Fatalf("store holds %d elements after the run, want %d", got, lists*perList)
	}
}

// BenchmarkTableUpsertDeleteHotList is BenchmarkTableUpsertDelete's op
// on one list of 10,000 elements, the size of the repository
// benchmark's hottest: every op lands on the same list, so this is the
// worst case of an insert or delete that keeps a list in order.
func BenchmarkTableUpsertDeleteHotList(b *testing.B) {
	const n = 10_000
	rng := rand.New(rand.NewSource(1))
	fresh := func() posting.EncryptedShare {
		tf := uint16(min(1/(1-rng.Float64()), 1023))
		gid := posting.TagImpact(posting.GlobalID(rng.Uint64()), posting.ImpactBucket(tf))
		return sh(gid, uint32(rng.Intn(8)), rng.Uint64()>>4)
	}
	st := store.NewSharded(1)
	shares := make([]posting.EncryptedShare, n)
	resident := make([]posting.GlobalID, n) // a ring whose oldest is at i%n
	for i := range shares {
		shares[i] = fresh()
		resident[i] = shares[i].GlobalID
	}
	st.Upsert(0, shares)
	incoming := make([]posting.EncryptedShare, 1<<16)
	for i := range incoming {
		incoming[i] = fresh()
	}
	allow := func(posting.EncryptedShare) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := incoming[i%len(incoming)]
		in.GlobalID += posting.GlobalID(i / len(incoming)) // never the same ID twice
		st.Upsert(0, []posting.EncryptedShare{in})
		oldest := &resident[i%n]
		if _, deleted := st.DeleteIf(0, *oldest, allow); !deleted {
			b.Fatalf("op %d: lost element %d", i, *oldest)
		}
		*oldest = in.GlobalID
	}
	b.StopTimer()
	if got := st.TotalElements(); got != n {
		b.Fatalf("store holds %d elements after the run, want %d", got, n)
	}
}

// BenchmarkHeapPerElement is what an engine holds in memory per stored
// element: the live heap after a collection with the store built, less
// the live heap before it, over 625 lists of 640 elements (the
// repository benchmark's server holds 625 lists), each list one Upsert
// of shares in random global-ID order with power-law impact buckets and
// one of 8 groups. heapB/element is the figure; ns/op is the build and
// two collections.
func BenchmarkHeapPerElement(b *testing.B) {
	const lists, perList = 625, 640
	rng := rand.New(rand.NewSource(1))
	shares := make([]posting.EncryptedShare, lists*perList)
	for i := range shares {
		tf := uint16(min(1/(1-rng.Float64()), 1023))
		gid := posting.TagImpact(posting.GlobalID(rng.Uint64()), posting.ImpactBucket(tf))
		shares[i] = sh(gid, uint32(rng.Intn(8)), rng.Uint64()>>4)
	}
	for _, eng := range []struct {
		name string
		open func(b *testing.B) store.Store
	}{
		{"sharded", func(*testing.B) store.Store { return store.NewSharded(0) }},
		{"disk", func(b *testing.B) store.Store {
			d, err := store.OpenDisk(b.TempDir(), store.DiskOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return d
		}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			heap := 0.0
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				st := eng.open(b)
				for lid := 0; lid < lists; lid++ {
					st.Upsert(merging.ListID(lid), shares[lid*perList:(lid+1)*perList])
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(st)
				heap += float64(after.HeapAlloc) - float64(before.HeapAlloc)
				if d, ok := st.(*store.Disk); ok {
					d.Close()
				}
			}
			b.ReportMetric(heap/float64(b.N*lists*perList), "heapB/element")
		})
	}
}
