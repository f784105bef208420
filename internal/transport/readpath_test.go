package transport_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// TestDuplicateListScannedOnce: a list named several times in one lookup
// is scanned, returned and counted once, over the wire.
func TestDuplicateListScannedOnce(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			srv, tok := newServer(t)
			c := codec.dial(t, srv)
			ctx := context.Background()
			if err := transporttest.Insert(ctx, c, tok, []transport.InsertOp{
				{List: 5, Share: sampleShare(10, 1)}, {List: 5, Share: sampleShare(11, 2)}, {List: 5, Share: sampleShare(12, 3)},
				{List: 7, Share: sampleShare(20, 4)}, {List: 7, Share: sampleShare(21, 5)},
			}); err != nil {
				t.Fatal(err)
			}
			want, err := c.GetPostingLists(ctx, tok, []merging.ListID{5, 7})
			if err != nil {
				t.Fatal(err)
			}
			before := srv.StatsSnapshot()
			got, err := c.GetPostingLists(ctx, tok, []merging.ListID{5, 5, 7, 5})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || len(got[5]) != 3 || len(got[7]) != 2 {
				t.Errorf("lookup of [5 5 7 5] = %v, want the response to [5 7] %v", got, want)
			}
			after := srv.StatsSnapshot()
			if served := after.ElementsServed - before.ElementsServed; served != 5 || after.Lookups != before.Lookups+1 {
				t.Errorf("lookup of [5 5 7 5] counted %d elements served in %d lookups, want 5 in 1",
					served, after.Lookups-before.Lookups)
			}
		})
	}
}

// oversizeAPI answers every lookup with one list of n shares, whose
// encoding is just over the frame bound, in a fresh slice per call:
// the server releases what it answered, so a slice kept across calls
// would come back recycled.
type oversizeAPI struct {
	transport.API
	n int
}

func (a oversizeAPI) GetPostingLists(context.Context, auth.Token, []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	return map[merging.ListID][]posting.EncryptedShare{1: make([]posting.EncryptedShare, a.n)}, nil
}

// lookupFrame builds a lookup request frame by hand.
func lookupFrame(t *testing.T, id uint64, tok auth.Token, lists ...merging.ListID) []byte {
	p := binary.LittleEndian.AppendUint64(nil, id)
	p = append(p, 5) // binMsgLookup
	p = binary.LittleEndian.AppendUint16(p, uint16(len(tok)))
	p = append(p, tok...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(lists)))
	for _, lid := range lists {
		p = binary.LittleEndian.AppendUint32(p, uint32(lid))
	}
	return frameBytes(t, p)
}

// TestBinaryOversizeResponse: a response that cannot be framed is
// answered with an addressed 400 on the same connection, which then
// keeps serving.
func TestBinaryOversizeResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64 MB response")
	}
	srv, tok := newServer(t)
	big := oversizeAPI{API: srv, n: (64<<20)/transport.ShareBytes + 1}
	bs := startBinary(t, big, "")
	raw := dialRaw(t, bs.Addr().String())
	for round := uint64(0); round < 2; round++ {
		raw.send(lookupFrame(t, 10+round, tok, 1))
		id, kind, status, rest := raw.recv()
		if id != 10+round || kind != 5 || status != 400 {
			t.Fatalf("oversize response answered (id=%d kind=%d status=%d), want (%d, 5, 400)", id, kind, status, 10+round)
		}
		if msg := string(rest[2:]); !strings.Contains(msg, "response exceeds frame limit") || len(rest) > 2+4096 {
			t.Errorf("oversize response: %d-byte message %q", len(rest)-2, msg)
		}
		raw.send(xcoordFrame(t, 20+round))
		if id, _, status, body := raw.recv(); id != 20+round || status != 0 || binary.LittleEndian.Uint64(body) != 42 {
			t.Fatalf("connection unusable after an oversize response: id=%d status=%d", id, status)
		}
	}
}

// TestBinaryNoStaleBytesAcrossCallers is the r-confidentiality contract
// of the recycled buffers, through a real server on both engines: after
// user A's 10,000-share response, user B's 10-share lookup on the same
// connection (so very likely out of the buffers A's just went through)
// is a frame of exactly 10 shares' length holding exactly B's shares.
func TestBinaryNoStaleBytesAcrossCallers(t *testing.T) {
	for _, engine := range []string{"sharded", "disk"} {
		t.Run(engine, func(t *testing.T) {
			st, err := store.NewEngine(engine, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			svc, err := auth.NewService(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			groups := auth.NewGroupTable()
			groups.Add("a", 1)
			groups.Add("b", 2)
			srv := server.New(server.Config{Name: "ix", X: field.New(42), Auth: svc, Groups: groups, Store: st})
			const big, small = 10_000, 10
			mine := map[uint32][]posting.EncryptedShare{}
			for i := 0; i < big+small; i++ {
				group := uint32(1)
				if i%(big/small) == 7 && len(mine[2]) < small {
					group = 2
				}
				mine[group] = append(mine[group], posting.EncryptedShare{
					GlobalID: posting.GlobalID(i + 1), Group: group, Y: field.New(uint64(i)*0x9E3779B97F4A7C15>>4 | 1)})
			}
			st.Upsert(9, append(append([]posting.EncryptedShare{}, mine[1]...), mine[2]...))

			bs := startBinary(t, srv, "")
			raw := dialRaw(t, bs.Addr().String())
			for round := 0; round < 3; round++ {
				for _, who := range []struct {
					user  auth.UserID
					group uint32
				}{{"a", 1}, {"b", 2}} {
					raw.send(lookupFrame(t, 1, svc.Issue(who.user), 9))
					_, _, status, body := raw.recv()
					want := mine[who.group]
					if wantLen := 4 + 4 + 4 + len(want)*transport.ShareBytes; status != 0 || len(body) != wantLen {
						t.Fatalf("%s: status %d, %d-byte body, want %d bytes for %d shares", who.user, status, len(body), wantLen, len(want))
					}
					if lists, lid, n := binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint32(body[4:]), binary.LittleEndian.Uint32(body[8:]); lists != 1 || lid != 9 || int(n) != len(want) {
						t.Fatalf("%s: %d lists, list %d, %d shares", who.user, lists, lid, n)
					}
					got := map[posting.EncryptedShare]bool{}
					for rec := body[12:]; len(rec) > 0; rec = rec[transport.ShareBytes:] {
						got[posting.EncryptedShare{
							GlobalID: posting.GlobalID(binary.LittleEndian.Uint64(rec)),
							Group:    binary.LittleEndian.Uint32(rec[8:]),
							Y:        field.Element(binary.LittleEndian.Uint64(rec[12:])),
						}] = true
					}
					for _, sh := range want {
						if !got[sh] {
							t.Fatalf("%s: response misses %+v", who.user, sh)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d distinct shares in the response, want %d", who.user, len(got), len(want))
					}
				}
			}
		})
	}
}

// jitterAPI delays every lookup by a random few hundred microseconds, so
// cancellations land before, during and after the server's work.
type jitterAPI struct{ transport.API }

func (a jitterAPI) wait() { time.Sleep(time.Duration(rand.Intn(400)) * time.Microsecond) }

func (a jitterAPI) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	a.wait()
	return a.API.GetPostingLists(ctx, tok, lists)
}

func (a jitterAPI) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	a.wait()
	return a.API.GetPostingBlocks(ctx, tok, list, from, n)
}

// TestBinaryCancelStress shares one BinaryClient (one connection, one
// set of recycled buffers) between many goroutines, abandons a third of
// the calls at random points — before the request is sent, while it is
// in flight, around the instant the response is delivered — and checks
// every call that does return against what the server holds, share for
// share. A buffer released twice, released while a caller still decodes
// from it, or handed to two callers shows up here as a wrong share or,
// under -race, as a race report.
func TestBinaryCancelStress(t *testing.T) {
	srv, tok := newServer(t)
	const lists = 24
	sizes := make([]int, lists)
	for lid := range sizes {
		sizes[lid] = 1 + lid*lid*4 // 1 .. 2,117 shares: frames from 40 B to 42 KB
		shares := make([]posting.EncryptedShare, sizes[lid])
		for i := range shares {
			shares[i] = sampleShare(posting.GlobalID(lid<<16|i+1), uint64(lid)<<32|uint64(i)*2654435761)
		}
		srv.Store().Upsert(merging.ListID(lid), shares)
	}
	held := make([][]posting.EncryptedShare, lists)
	for lid := range held {
		held[lid] = srv.Store().Scan(merging.ListID(lid), nil)
	}
	bs := startBinary(t, jitterAPI{srv}, "")
	c, err := transport.DialBinary(bs.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	workers, calls := 12, 60
	if testing.Short() {
		workers, calls = 8, 30
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	done, abandoned := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < calls; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				switch rng.Intn(6) {
				case 0: // before send
					cancel()
				case 1: // in flight, or as the response arrives
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(900))*time.Microsecond)
				}
				var err error
				a, b := rng.Intn(lists), rng.Intn(lists)
				if rng.Intn(3) == 0 {
					from, n := rng.Intn(sizes[a]), 1+rng.Intn(300)
					var page transport.BlockPage
					page, err = c.GetPostingBlocks(ctx, tok, merging.ListID(a), from, n)
					if want := held[a][from:min(from+n, sizes[a])]; err == nil && (page.Total != sizes[a] || !reflect.DeepEqual(page.Shares, want)) {
						t.Errorf("worker %d call %d: window [%d,+%d) of list %d: %d shares of %d, want %d of %d, or wrong ones",
							w, i, from, n, a, len(page.Shares), page.Total, len(want), sizes[a])
					}
				} else {
					var out map[merging.ListID][]posting.EncryptedShare
					out, err = c.GetPostingLists(ctx, tok, []merging.ListID{merging.ListID(a), merging.ListID(b)})
					if err == nil && (!reflect.DeepEqual(out[merging.ListID(a)], held[a]) || !reflect.DeepEqual(out[merging.ListID(b)], held[b])) {
						t.Errorf("worker %d call %d: lists %d and %d came back with %d and %d shares, want %d and %d, or wrong ones",
							w, i, a, b, len(out[merging.ListID(a)]), len(out[merging.ListID(b)]), sizes[a], sizes[b])
					}
				}
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("worker %d call %d: %v", w, i, err)
				}
				mu.Lock()
				if err == nil {
					done++
				} else {
					abandoned++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if total := workers * calls; done < total/2 || abandoned < total/8 {
		t.Errorf("%d calls returned and %d were abandoned of %d: the mix does not exercise both", done, abandoned, total)
	}
	// The connection and its buffers are still good.
	out, err := c.GetPostingLists(context.Background(), tok, []merging.ListID{lists - 1})
	if err != nil || !reflect.DeepEqual(out[lists-1], held[lists-1]) {
		t.Fatalf("lookup after the stress: %v", err)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return nc, err
}

// TestBinaryConcurrentWritersShareConnection puts 16 goroutines on one
// BinaryClient, each writing its own request frames: empty Apply calls,
// whose answer is a bare header, beside lookups of 10,000 shares, whose
// answer is a 200 KB frame, so the server's concurrent responses differ
// in size by four orders of magnitude. A third of the calls give up at a
// random point: a context cancelled before the call, which races the
// free write lock, or a deadline that falls while the call waits for the
// lock or for its reply. Every call that returns must carry its own
// answer, share for share, and the client must never need a second
// connection: a frame interleaved with another, a response torn, or a
// cancel that killed the connection would each force a redial.
func TestBinaryConcurrentWritersShareConnection(t *testing.T) {
	srv, tok := newServer(t)
	const lists, size = 16, 10_000
	held := make([][]posting.EncryptedShare, lists)
	for lid := range held {
		shares := make([]posting.EncryptedShare, size)
		for i := range shares {
			shares[i] = sampleShare(posting.GlobalID(lid<<20|i+1), uint64(lid)<<40|uint64(i)*2654435761)
		}
		srv.Store().Upsert(merging.ListID(lid), shares)
		held[lid] = srv.Store().Scan(merging.ListID(lid), nil)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	bs := transport.ServeBinary(ln, srv)
	t.Cleanup(func() { bs.Close() })
	c, err := transport.DialBinary(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	calls := 40
	if testing.Short() {
		calls = 12
	}
	var wg sync.WaitGroup
	var done, abandoned atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < calls; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					if rng.Intn(2) == 0 {
						cancel()
					} else {
						ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
					}
				}
				var err error
				if rng.Intn(2) == 0 {
					err = c.Apply(ctx, tok, transport.OpID{}, nil, nil)
				} else {
					lid := merging.ListID((w + i) % lists)
					var out map[merging.ListID][]posting.EncryptedShare
					out, err = c.GetPostingLists(ctx, tok, []merging.ListID{lid})
					if err == nil && (len(out) != 1 || !reflect.DeepEqual(out[lid], held[lid])) {
						t.Errorf("worker %d call %d: list %d came back as %d lists, %d shares of it, want %d, or wrong ones",
							w, i, lid, len(out), len(out[lid]), size)
					}
				}
				cancel()
				switch {
				case err == nil:
					done.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					abandoned.Add(1)
				default:
					t.Errorf("worker %d call %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if total := int32(workers * calls); done.Load() < total/2 || abandoned.Load() < total/8 {
		t.Errorf("%d calls returned and %d were abandoned of %d: the mix does not exercise both", done.Load(), abandoned.Load(), total)
	}
	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("client opened %d connections, want the one it dialed", got)
	}
}
