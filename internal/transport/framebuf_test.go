package transport

import (
	"context"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// cannedAPI answers every lookup with the same 3,500 shares in three
// lists — one server's share of a benchmark search — and allocates
// nothing doing so, so what a round trip allocates is the transport's.
type cannedAPI struct {
	out map[merging.ListID][]posting.EncryptedShare
}

func newCannedAPI() cannedAPI {
	out := make(map[merging.ListID][]posting.EncryptedShare, 3)
	var gid posting.GlobalID
	for lid, n := range map[merging.ListID]int{3: 2000, 17: 1100, 40: 400} {
		shares := make([]posting.EncryptedShare, n)
		for i := range shares {
			gid++
			shares[i] = share(gid, uint32(i%4), uint64(gid)*0x9E3779B97F4A7C15>>3)
		}
		out[lid] = shares
	}
	return cannedAPI{out: out}
}

func (a cannedAPI) XCoord() field.Element { return field.New(7) }

func (a cannedAPI) Apply(context.Context, auth.Token, OpID, []InsertOp, []DeleteOp) error {
	return nil
}

func (a cannedAPI) GetPostingLists(context.Context, auth.Token, []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	return a.out, nil
}

func (a cannedAPI) GetPostingBlocks(context.Context, auth.Token, merging.ListID, int, int) (BlockPage, error) {
	return BlockPage{Shares: a.out[40], Total: 400}, nil
}

// serveCanned serves a cannedAPI on loopback and dials it.
func serveCanned(tb testing.TB) (cannedAPI, *BinaryClient) {
	tb.Helper()
	api := newCannedAPI()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	bs := ServeBinary(ln, api)
	tb.Cleanup(func() { bs.Close() })
	c, err := DialBinary(ln.Addr().String(), 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return api, c
}

// poolsRecycle reports whether a sync.Pool hands back what was just put
// into it. Under the race detector it drops a quarter of all puts at
// random, so a budget that counts on a recycled buffer cannot be
// measured there.
func poolsRecycle() bool {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// bytesPerRun reports the mean bytes allocated by one call of f, process
// wide, in steady state: f runs a few times first so pools are primed,
// the collector is held off so it cannot empty them mid-measurement, and
// (as testing.AllocsPerRun does) everything runs on one P, because a
// buffer parked in one P's private pool slot is invisible to a goroutine
// that has moved to another and would be allocated again.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestBinaryLookupBufferBudget is the read path's steady-state memory
// budget for a 3,500-share lookup (a 70 KB frame). Server side, from the
// decoded request to the sealed frame, nothing proportional to the
// response is allocated: the frame is built in a recycled buffer. Over
// the whole loopback round trip, the process allocates what decoding the
// response returns to the caller — the share slices and the map — and,
// beyond that, only per-call bookkeeping: no payload buffer, no frame
// copy, no read buffer.
func TestBinaryLookupBufferBudget(t *testing.T) {
	if !poolsRecycle() {
		t.Skip("sync.Pool is dropping buffers (race detector): no steady state to measure")
	}
	api, c := serveCanned(t)
	const slack = 4 << 10 // contexts, timers, the call's channel, closures
	req := binRequest{id: 1, kind: binMsgLookup, lists: []merging.ListID{3, 17, 40}}

	s := &BinaryServer{api: api}
	var frameLen int
	if got := bytesPerRun(50, func() {
		frame := s.respond(context.Background(), req)
		frameLen = len(frame.b)
		frame.release()
	}); got > slack {
		t.Errorf("building a %d-byte response frame allocated %.0f bytes, want under %d", frameLen, got, slack)
	}
	if want := 4 + binRespHeaderSize + binLookupBodySize(api.out) + 4; frameLen != want || frameLen < 70_000 {
		t.Fatalf("response frame is %d bytes, want %d", frameLen, want)
	}

	payload := appendBinOK(nil, 1, binMsgLookup, func(dst []byte) []byte { return appendLookupBody(dst, api.out) })
	decoded := bytesPerRun(50, func() {
		if _, err := decodeBinResponse(payload); err != nil {
			t.Fatal(err)
		}
	})
	if got := bytesPerRun(50, func() {
		out, err := c.GetPostingLists(context.Background(), "tok", req.lists)
		if err != nil || len(out[3]) != 2000 {
			t.Fatalf("lookup: %d shares, %v", len(out[3]), err)
		}
	}); got > decoded+slack {
		t.Errorf("a %d-byte lookup round trip allocated %.0f bytes; decoding returns %.0f, want at most %d more",
			frameLen, got, decoded, slack)
	}
}
