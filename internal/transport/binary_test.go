package transport_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"zerber/internal/merging"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
	"zerber/internal/wal"
)

// startBinary serves api on a fresh loopback listener and returns the
// server plus its address. Callers that restart the server close it
// themselves; t.Cleanup tolerates double close.
func startBinary(t *testing.T, api transport.API, addr string) *transport.BinaryServer {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bs := transport.ServeBinary(ln, api)
	t.Cleanup(func() { bs.Close() })
	return bs
}

// TestBinaryPipelining issues many concurrent calls over one client —
// one TCP connection — against a server whose API carries a fixed
// simulated RTT. Pipelined, the batch completes in a handful of RTTs;
// serialized it would need one RTT per call.
func TestBinaryPipelining(t *testing.T) {
	const rtt = 30 * time.Millisecond
	const calls = 8
	srv, tok := newServer(t)
	slow := transport.WithLatency(srv, rtt)
	bs := startBinary(t, slow, "")
	c, err := transport.DialBinary(bs.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetPostingLists(context.Background(), tok, []merging.ListID{merging.ListID(i)})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Serial execution would take calls*rtt = 240ms. Allow half of that
	// as headroom for scheduler noise on loaded machines.
	if limit := time.Duration(calls) * rtt / 2; elapsed >= limit {
		t.Errorf("%d pipelined calls took %v, want < %v (serial would be %v)",
			calls, elapsed, limit, time.Duration(calls)*rtt)
	}
}

// TestBinaryReconnect kills the server under a connected client and
// brings it back on the same address: calls during the outage fail
// (fast, once the backoff window opens), and calls after the restart
// succeed on a fresh connection — no new client needed.
func TestBinaryReconnect(t *testing.T) {
	restore := transport.SetBinaryBackoff(time.Millisecond, 20*time.Millisecond)
	defer restore()

	srv, tok := newServer(t)
	bs := startBinary(t, srv, "")
	addr := bs.Addr().String()
	c, err := transport.DialBinary(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := transporttest.Insert(ctx, c, tok, []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}}); err != nil {
		t.Fatal(err)
	}

	bs.Close()
	if err := transporttest.Insert(ctx, c, tok, []transport.InsertOp{{List: 1, Share: sampleShare(2, 2)}}); err == nil {
		t.Fatal("call against a dead server must fail")
	}

	startBinary(t, srv, addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := transporttest.Insert(ctx, c, tok, []transport.InsertOp{{List: 1, Share: sampleShare(3, 3)}})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.ListLength(1); got != 2 {
		t.Errorf("list holds %d elements after reconnect, want 2", got)
	}
}

// TestBinaryBackoffFailsFast verifies the backoff window: after a
// failed dial, the next call inside the window fails immediately with
// the cached error instead of re-dialing.
func TestBinaryBackoffFailsFast(t *testing.T) {
	restore := transport.SetBinaryBackoff(time.Hour, time.Hour)
	defer restore()

	srv, tok := newServer(t)
	bs := startBinary(t, srv, "")
	c, err := transport.DialBinary(bs.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bs.Close()

	ctx := context.Background()
	ins := []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}}
	// First failure kills the connection; second triggers the failed
	// re-dial that opens the backoff window; the third must fail fast.
	transporttest.Insert(ctx, c, tok, ins)
	transporttest.Insert(ctx, c, tok, ins)
	start := time.Now()
	err = transporttest.Insert(ctx, c, tok, ins)
	if err == nil {
		t.Fatal("call against a dead server must fail")
	}
	if !strings.Contains(err.Error(), "backoff") {
		t.Errorf("expected a backoff error, got: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("backoff-window call took %v, want fail-fast", d)
	}
}

// TestBinaryCancellationKeepsConnection abandons a call via context
// timeout and verifies the connection survives: the late response is
// dropped by request ID and subsequent calls work.
func TestBinaryCancellationKeepsConnection(t *testing.T) {
	srv, tok := newServer(t)
	slow := transport.WithLatency(srv, 150*time.Millisecond)
	bs := startBinary(t, slow, "")
	c, err := transport.DialBinary(bs.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = c.GetPostingLists(ctx, tok, []merging.ListID{1})
	cancel()
	if err != context.DeadlineExceeded {
		t.Fatalf("abandoned call returned %v, want DeadlineExceeded", err)
	}
	// The abandoned call's response arrives mid-flight; the next call
	// must not be confused by it.
	out, err := c.GetPostingLists(context.Background(), tok, []merging.ListID{1})
	if err != nil {
		t.Fatalf("connection unusable after an abandoned call: %v", err)
	}
	if len(out[1]) != 0 {
		t.Errorf("unexpected shares: %v", out)
	}
}

// rawConn speaks the frame layer by hand for the error-path tests.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (r *rawConn) send(frame []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(frame); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads one response frame and returns (id, kind, status, rest).
func (r *rawConn) recv() (uint64, byte, uint16, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := wal.ReadFrame(r.br)
	if err != nil {
		r.t.Fatalf("reading response frame: %v", err)
	}
	if len(payload) < 11 {
		r.t.Fatalf("response payload too short: %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), payload[8],
		binary.LittleEndian.Uint16(payload[9:]), payload[11:]
}

func frameBytes(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wal.AppendFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// xcoordFrame builds a valid XCoord request frame with the given ID.
func xcoordFrame(t *testing.T, id uint64) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, id)
	payload = append(payload, 1)    // binMsgXCoord
	payload = append(payload, 0, 0) // empty token
	return frameBytes(t, payload)
}

// TestBinaryServerMalformedRequest sends well-framed requests with an
// unknown message kind: the server must answer each with an addressed
// 400 and keep the connection alive — mirroring HTTP's clean-4xx
// contract. The retired standalone insert (2) and delete (3) kinds are
// unknown kinds like any other, even framed exactly as an old client
// would, with a valid token and a valid body.
func TestBinaryServerMalformedRequest(t *testing.T) {
	srv, tok := newServer(t)
	bs := startBinary(t, srv, "")
	raw := dialRaw(t, bs.Addr().String())

	header := func(id uint64, kind byte) []byte {
		p := binary.LittleEndian.AppendUint64(nil, id)
		p = append(p, kind)
		p = binary.LittleEndian.AppendUint16(p, uint16(len(tok)))
		return append(p, tok...)
	}
	retiredInsert := binary.LittleEndian.AppendUint32(header(80, 2), 1)
	retiredInsert = binary.LittleEndian.AppendUint32(retiredInsert, 1)  // list
	retiredInsert = binary.LittleEndian.AppendUint64(retiredInsert, 1)  // global ID
	retiredInsert = binary.LittleEndian.AppendUint32(retiredInsert, 1)  // group
	retiredInsert = binary.LittleEndian.AppendUint64(retiredInsert, 10) // share value
	retiredDelete := binary.LittleEndian.AppendUint32(header(81, 3), 1)
	retiredDelete = binary.LittleEndian.AppendUint32(retiredDelete, 1) // list
	retiredDelete = binary.LittleEndian.AppendUint64(retiredDelete, 1) // global ID

	for _, bad := range []struct {
		id      uint64
		kind    byte
		payload []byte
	}{
		{77, 99, header(77, 99)},
		{80, 2, retiredInsert},
		{81, 3, retiredDelete},
	} {
		raw.send(frameBytes(t, bad.payload))
		id, kind, status, _ := raw.recv()
		if id != bad.id || kind != bad.kind || status != 400 {
			t.Errorf("malformed request answered (id=%d kind=%d status=%d), want (%d, %d, 400)",
				id, kind, status, bad.id, bad.kind)
		}

		// The connection must still serve valid requests.
		raw.send(xcoordFrame(t, bad.id+100))
		id, _, status, body := raw.recv()
		if id != bad.id+100 || status != 0 {
			t.Fatalf("connection unusable after malformed request: id=%d status=%d", id, status)
		}
		if x := binary.LittleEndian.Uint64(body); x != 42 {
			t.Errorf("XCoord = %d, want 42", x)
		}
		if srv.TotalElements() != 0 {
			t.Error("malformed request mutated the server")
		}
	}
}

// TestBinaryServerCorruptFrame flips a byte inside a frame so the CRC
// fails: stream synchronization is gone, so the server must drop the
// connection — and the server state stays untouched.
func TestBinaryServerCorruptFrame(t *testing.T) {
	srv, _ := newServer(t)
	bs := startBinary(t, srv, "")
	raw := dialRaw(t, bs.Addr().String())

	frame := xcoordFrame(t, 1)
	frame[len(frame)-5] ^= 0xFF // corrupt the last payload byte
	raw.send(frame)

	raw.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wal.ReadFrame(raw.br); err == nil {
		t.Fatal("server answered a corrupt frame instead of dropping the connection")
	}
	if srv.TotalElements() != 0 {
		t.Error("corrupt frame mutated the server")
	}
}

// TestBinaryServerTruncatedFrame half-writes a frame and closes: the
// server must treat the torn tail as a dropped connection, not a
// request.
func TestBinaryServerTruncatedFrame(t *testing.T) {
	srv, _ := newServer(t)
	bs := startBinary(t, srv, "")
	raw := dialRaw(t, bs.Addr().String())

	frame := xcoordFrame(t, 1)
	raw.send(frame[:len(frame)/2])
	raw.nc.Close()
	// Nothing to assert on the wire (the connection is gone); the
	// server must simply survive and stay clean.
	time.Sleep(20 * time.Millisecond)
	if srv.TotalElements() != 0 {
		t.Error("torn frame mutated the server")
	}
}

// TestBinaryClientRejectsCorruptResponse runs a fake server that
// answers with garbage: the client must fail the call and mark the
// connection dead rather than mis-decode — both when the reader cannot
// even route the frame (too short to carry a request ID) and when it
// routes it and the waiting caller finds the body malformed.
func TestBinaryClientRejectsCorruptResponse(t *testing.T) {
	for name, payload := range map[string][]byte{
		"no header": {1, 2, 3},
		// Request ID 0 (the dial's x-coordinate call), kind xcoord,
		// status OK, then 3 of the 8 body bytes.
		"short body": {0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 2, 3},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			if _, err := wal.ReadFrame(br); err != nil {
				return
			}
			var buf bytes.Buffer
			wal.AppendFrame(&buf, payload)
			nc.Write(buf.Bytes())
		}()

		_, err = transport.DialBinary(ln.Addr().String(), time.Second)
		if err == nil {
			t.Fatalf("%s: client accepted a garbage response", name)
		}
		if !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s: expected a malformed-message error, got: %v", name, err)
		}
	}
}

// TestBinaryDialScheme exercises transport.Dial's scheme dispatch.
func TestBinaryDialScheme(t *testing.T) {
	srv, tok := newServer(t)
	bs := startBinary(t, srv, "")
	c, err := transport.Dial("binary://"+bs.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := c.(*transport.BinaryClient)
	if !ok {
		t.Fatalf("Dial(binary://...) returned %T, want *BinaryClient", c)
	}
	defer bc.Close()
	if err := transporttest.Insert(context.Background(), bc, tok, []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}}); err != nil {
		t.Fatal(err)
	}
}
