package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// BenchmarkServerMixed drives parallel mixed insert/lookup/delete
// traffic against one index server, once per storage engine: the
// one-stripe single-lock reference (shards=1), the lock-striped
// Sharded default, and the log-structured Disk engine, which serves the
// same scans from memory under one lock and appends every update to its
// log. The workload
// models steady-state server traffic — mostly posting-list scans with
// a stream of single-element updates — which is exactly where a global
// RWMutex collapses: every update excludes all concurrent scans, while
// the sharded engine only excludes scans of the 1/shards lists sharing
// the stripe.
//
// Reproduce with `make benchstore`.
func BenchmarkServerMixed(b *testing.B) {
	const (
		nLists   = 256
		listLen  = 256
		nGroups  = 4
		curGroup = 1
	)
	engines := []struct {
		name string
		mk   func(b *testing.B) store.Store
	}{
		{"shards=1", func(*testing.B) store.Store { return store.NewSharded(1) }},
		{fmt.Sprintf("shards=%d", store.DefaultShards()), func(*testing.B) store.Store { return store.NewSharded(0) }},
		{"disk", func(b *testing.B) store.Store {
			d, err := store.OpenDisk(b.TempDir(), store.DiskOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { d.Close() })
			return d
		}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			svc, err := auth.NewService(time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			groups := auth.NewGroupTable()
			for g := 1; g <= nGroups; g++ {
				groups.Add("alice", auth.GroupID(g))
			}
			srv := New(Config{Name: "bench", X: 17, Auth: svc, Groups: groups, Store: eng.mk(b)})
			tok := svc.Issue("alice")
			ctx := context.Background()

			// Seed every list so lookups scan realistic lengths.
			for lid := 0; lid < nLists; lid++ {
				ops := make([]transport.InsertOp, listLen)
				for i := range ops {
					gid := posting.GlobalID(lid*listLen + i)
					ops[i] = transport.InsertOp{List: merging.ListID(lid), Share: share(gid, uint32(1+i%nGroups), uint64(i))}
				}
				if err := transporttest.Insert(ctx, srv, tok, ops); err != nil {
					b.Fatal(err)
				}
			}

			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := worker.Add(1)
				r := rand.New(rand.NewSource(id))
				// Each worker churns its own element IDs so deletes always
				// address elements it inserted itself.
				nextGID := posting.GlobalID(id) << 32
				var pending []transport.DeleteOp
				for pb.Next() {
					lid := merging.ListID(r.Intn(nLists))
					switch r.Intn(4) {
					case 0: // insert one fresh element
						nextGID++
						op := transport.InsertOp{List: lid, Share: share(nextGID, curGroup, uint64(nextGID))}
						if err := transporttest.Insert(ctx, srv, tok, []transport.InsertOp{op}); err != nil {
							b.Error(err)
							return
						}
						pending = append(pending, transport.DeleteOp{List: lid, ID: nextGID})
					case 1: // delete one of this worker's earlier inserts
						if len(pending) == 0 {
							continue
						}
						op := pending[len(pending)-1]
						pending = pending[:len(pending)-1]
						if err := transporttest.Delete(ctx, srv, tok, []transport.DeleteOp{op}); err != nil {
							b.Error(err)
							return
						}
					default: // scan one merged posting list
						if _, err := srv.GetPostingLists(ctx, tok, []merging.ListID{lid}); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}
