package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

func newServer(t testing.TB) (*server.Server, auth.Token) {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	srv := server.New(server.Config{Name: "ix", X: field.New(42), Auth: svc, Groups: groups})
	return srv, svc.Issue("alice")
}

func sampleShare(gid posting.GlobalID, y uint64) posting.EncryptedShare {
	return posting.EncryptedShare{GlobalID: gid, Group: 1, Y: field.New(y)}
}

// serverFingerprint captures everything a rejected request must not
// change: stored elements and activity stats.
func serverFingerprint(s *server.Server) string {
	return fmt.Sprintf("%d/%v/%+v", s.Store().TotalElements(), s.Store().ListLengths(), s.StatsSnapshot())
}

// codecs is the wire matrix the conformance suite runs over: every test
// that exercises client/server behavior through a real socket runs once
// per codec, under the codec's name. The binary framed codec is the only
// one.
var codecs = []struct {
	name string
	dial func(t testing.TB, api transport.API) transport.API
}{
	{"binary", dialBinaryCodec},
}

// dialBinaryCodec serves api over a loopback binary listener and dials
// back through the framed client.
func dialBinaryCodec(t testing.TB, api transport.API) transport.API {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := transport.ServeBinary(ln, api)
	t.Cleanup(func() { bs.Close() })
	c, err := transport.DialBinary(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireRoundTrip(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			srv, tok := newServer(t)
			c := codec.dial(t, srv)
			if c.XCoord() != field.New(42) {
				t.Errorf("XCoord over %s = %d, want 42", codec.name, c.XCoord())
			}
			if err := transporttest.Insert(context.Background(), c, tok, []transport.InsertOp{
				{List: 5, Share: sampleShare(10, 123456789012345)},
				{List: 5, Share: sampleShare(11, 9)},
			}); err != nil {
				t.Fatal(err)
			}
			out, err := c.GetPostingLists(context.Background(), tok, []merging.ListID{5, 77})
			if err != nil {
				t.Fatal(err)
			}
			if len(out[5]) != 2 {
				t.Fatalf("lookup over %s: %d shares", codec.name, len(out[5]))
			}
			// Large Y values must survive the wire round trip exactly.
			found := false
			for _, sh := range out[5] {
				if sh.GlobalID == 10 && sh.Y == field.New(123456789012345) {
					found = true
				}
			}
			if !found {
				t.Error("share value corrupted on the wire")
			}
			if len(out[77]) != 0 {
				t.Error("unknown list must come back empty")
			}
			if err := transporttest.Delete(context.Background(), c, tok, []transport.DeleteOp{{List: 5, ID: 10}}); err != nil {
				t.Fatal(err)
			}
			if srv.Store().TotalElements() != 1 {
				t.Errorf("%s delete did not reach the server", codec.name)
			}
		})
	}
}

func TestWireLargeYPrecision(t *testing.T) {
	// Shares are uniform in [0, 2^61); the wire must carry them exactly.
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			srv, tok := newServer(t)
			c := codec.dial(t, srv)
			huge := uint64(field.P - 1) // 2^61 - 2: above 2^53, so any float64 detour would corrupt it
			if err := transporttest.Insert(context.Background(), c, tok, []transport.InsertOp{{List: 1, Share: sampleShare(1, huge)}}); err != nil {
				t.Fatal(err)
			}
			out, err := c.GetPostingLists(context.Background(), tok, []merging.ListID{1})
			if err != nil {
				t.Fatal(err)
			}
			if got := out[1][0].Y.Uint64(); got != huge {
				t.Fatalf("Y = %d, want %d (precision lost on the wire)", got, huge)
			}
		})
	}
}

func TestWireAuthFailures(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			srv, _ := newServer(t)
			c := codec.dial(t, srv)
			err := transporttest.Insert(context.Background(), c, auth.Token("garbage"), []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}})
			if err == nil {
				t.Fatalf("bad token accepted over %s", codec.name)
			}
			if !strings.Contains(err.Error(), "401") {
				t.Errorf("expected 401 in error, got: %v", err)
			}
		})
	}
}

func TestWireForbidden(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			srv, tok := newServer(t)
			c := codec.dial(t, srv)
			// alice is in group 1 only; group 99 insert is forbidden.
			err := transporttest.Insert(context.Background(), c, tok, []transport.InsertOp{{List: 1, Share: posting.EncryptedShare{GlobalID: 1, Group: 99, Y: 1}}})
			if err == nil {
				t.Fatalf("cross-group insert accepted over %s", codec.name)
			}
			if !strings.Contains(err.Error(), "403") {
				t.Errorf("expected 403 in error, got: %v", err)
			}
		})
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := transport.DialBinary("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dialing a dead address must fail")
	}
}

func TestLatencyWrapper(t *testing.T) {
	srv, tok := newServer(t)
	l := transport.WithLatency(srv, 20*time.Millisecond)
	if l.XCoord() != field.New(42) {
		t.Error("XCoord must pass through without delay")
	}
	start := time.Now()
	if err := transporttest.Insert(context.Background(), l, tok, []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("insert returned after %v, want >= 20ms", d)
	}
	if _, err := l.GetPostingLists(context.Background(), tok, []merging.ListID{1}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyWrapperHonorsCancellation(t *testing.T) {
	srv, tok := newServer(t)
	l := transport.WithLatency(srv, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := l.GetPostingLists(ctx, tok, []merging.ListID{1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not interrupt the simulated RTT")
	}
}
