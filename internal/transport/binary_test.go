package transport_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
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
	if got := len(srv.Store().Scan(1, nil)); got != 2 {
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

// TestBinaryCloseWaitsForItsGoroutines: Close returns only once the
// connection's one goroutine, its reader, has exited, so nothing a
// closed client started still runs (and allocates) after it; a test
// that counts allocations next would otherwise count them. No goroutine
// with binConn on its stack may outlive Close.
func TestBinaryCloseWaitsForItsGoroutines(t *testing.T) {
	srv, _ := newServer(t)
	bs := startBinary(t, srv, "")
	c, err := transport.DialBinary(bs.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := connGoroutines(); n == 0 {
		t.Fatal("no goroutine of the open connection found: the check below would prove nothing")
	}
	c.Close()
	if n := connGoroutines(); n != 0 {
		t.Errorf("%d goroutines with binConn on their stack outlive Close", n)
	}
}

// connGoroutines counts the goroutines with a binary client connection
// on their stack.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*binConn)")) {
			count++
		}
	}
	return count
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

// applyBody encodes the body of an apply request by hand: op header,
// then the insert and delete records.
func applyBody(op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) []byte {
	p := binary.LittleEndian.AppendUint64(nil, op.ID)
	p = append(p, op.Stage)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(inserts)))
	for _, ins := range inserts {
		p = binary.LittleEndian.AppendUint32(p, uint32(ins.List))
		p = binary.LittleEndian.AppendUint64(p, uint64(ins.Share.GlobalID))
		p = binary.LittleEndian.AppendUint32(p, ins.Share.Group)
		p = binary.LittleEndian.AppendUint64(p, ins.Share.Y.Uint64())
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(deletes)))
	for _, del := range deletes {
		p = binary.LittleEndian.AppendUint32(p, uint32(del.List))
		p = binary.LittleEndian.AppendUint64(p, uint64(del.ID))
	}
	return p
}

// rejectedRequest is one well-framed request the binary server must
// refuse with an addressed status.
type rejectedRequest struct {
	name    string
	id      uint64
	kind    byte
	payload []byte
	status  uint16
}

// reqHeader encodes a request header: ID, kind, length-prefixed token.
func reqHeader(id uint64, kind byte, tok auth.Token) []byte {
	p := binary.LittleEndian.AppendUint64(nil, id)
	p = append(p, kind)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(tok)))
	return append(p, tok...)
}

// expectRejected serves srv over a binary listener and sends every row
// down one raw connection. Each must be answered with its ID, kind and
// status; after each the connection keeps serving and the server is
// untouched. One legitimate element is stored first, so "untouched"
// means a non-empty store.
func expectRejected(t *testing.T, srv *server.Server, tok auth.Token, rows []rejectedRequest) {
	t.Helper()
	if err := transporttest.Insert(context.Background(), srv, tok,
		[]transport.InsertOp{{List: 1, Share: sampleShare(7, 70)}}); err != nil {
		t.Fatal(err)
	}
	before := serverFingerprint(srv)
	bs := startBinary(t, srv, "")
	conn := dialRaw(t, bs.Addr().String())

	for _, bad := range rows {
		t.Run(bad.name, func(t *testing.T) {
			raw := &rawConn{t: t, nc: conn.nc, br: conn.br}
			raw.send(frameBytes(t, bad.payload))
			id, kind, status, _ := raw.recv()
			if id != bad.id || kind != bad.kind || status != bad.status {
				t.Errorf("answered (id=%d kind=%d status=%d), want (%d, %d, %d)",
					id, kind, status, bad.id, bad.kind, bad.status)
			}

			// The connection must still serve valid requests.
			raw.send(xcoordFrame(t, bad.id+100))
			id, _, status, body := raw.recv()
			if id != bad.id+100 || status != 0 {
				t.Fatalf("connection unusable afterwards: id=%d status=%d", id, status)
			}
			if x := binary.LittleEndian.Uint64(body); x != 42 {
				t.Errorf("XCoord = %d, want 42", x)
			}
			if got := serverFingerprint(srv); got != before {
				t.Errorf("rejected request mutated the server: %s -> %s", before, got)
			}
		})
	}
}

// TestBinaryServerMalformedRequest sends well-framed requests with an
// unknown message kind: the server must answer each with an addressed
// 400 and keep the connection alive. The retired standalone insert (2)
// and delete (3) kinds are unknown kinds like any other, even framed
// exactly as an old client would, with a valid token and a valid body.
func TestBinaryServerMalformedRequest(t *testing.T) {
	srv, tok := newServer(t)
	retiredInsert := binary.LittleEndian.AppendUint32(reqHeader(80, 2, tok), 1)
	retiredInsert = binary.LittleEndian.AppendUint32(retiredInsert, 1)  // list
	retiredInsert = binary.LittleEndian.AppendUint64(retiredInsert, 1)  // global ID
	retiredInsert = binary.LittleEndian.AppendUint32(retiredInsert, 1)  // group
	retiredInsert = binary.LittleEndian.AppendUint64(retiredInsert, 10) // share value
	retiredDelete := binary.LittleEndian.AppendUint32(reqHeader(81, 3, tok), 1)
	retiredDelete = binary.LittleEndian.AppendUint32(retiredDelete, 1) // list
	retiredDelete = binary.LittleEndian.AppendUint64(retiredDelete, 1) // global ID

	expectRejected(t, srv, tok, []rejectedRequest{
		{"unknown kind", 77, 99, reqHeader(77, 99, tok), 400},
		{"retired insert kind", 80, 2, retiredInsert, 400},
		{"retired delete kind", 81, 3, retiredDelete, 400},
	})
}

// TestApplyHandlerErrorPaths drives the apply (and paged lookup)
// requests through every malformed shape the binary wire can carry:
// 400 for a body that is truncated or runs past its records, or an
// unknown mutation stage, 401 for an invalid token, 403 for an insert
// into a group the caller is not in. Each must be rejected cleanly and
// leave the server untouched: the request path is the cluster's only
// unauthenticated-input surface, so "reject without side effects" is a
// correctness bar, not a nicety.
func TestApplyHandlerErrorPaths(t *testing.T) {
	srv, tok := newServer(t)
	apply := func(id uint64, tok auth.Token, stage uint8, group uint32) []byte {
		ins := []transport.InsertOp{{List: 2, Share: sampleShare(8, 80)}}
		ins[0].Share.Group = group
		return append(reqHeader(id, 4, tok), applyBody(transport.OpID{ID: 99, Stage: stage}, ins, nil)...)
	}
	truncated := apply(82, tok, transport.StageInsert, 1)
	truncated = truncated[:len(truncated)-3]
	trailing := append(apply(87, tok, transport.StageInsert, 1), 0)
	lookupBlocks := binary.LittleEndian.AppendUint32(reqHeader(85, 6, "garbage"), 1) // list
	lookupBlocks = binary.LittleEndian.AppendUint64(lookupBlocks, 4<<32)             // from 0, n 4

	expectRejected(t, srv, tok, []rejectedRequest{
		{"truncated body", 82, 4, truncated, 400},
		{"trailing bytes after body", 87, 4, trailing, 400},
		{"unknown mutation stage", 83, 4, apply(83, tok, 7, 1), 400},
		{"invalid token", 84, 4, apply(84, "garbage", transport.StageInsert, 1), 401},
		{"invalid token on lookupblocks", 85, 6, lookupBlocks, 401},
		{"wrong-group insert", 86, 4, apply(86, tok, transport.StageInsert, 99), 403},
	})
}

// FuzzBinaryApplyRequest sends arbitrary apply bodies through the binary
// server's own request path (decode, then dispatch) to a real
// server.Server: none may panic and, since no fuzz input carries a
// validly signed token, none may be accepted or change the server. Run
// with `go test -fuzz=FuzzBinaryApplyRequest ./internal/transport`.
func FuzzBinaryApplyRequest(f *testing.F) {
	srv, _ := newServer(f)
	if added := srv.Store().Upsert(1, []posting.EncryptedShare{sampleShare(3, 30)}); added != 1 {
		f.Fatalf("seeding the store appended %d shares, want 1", added)
	}
	baseline := serverFingerprint(srv)

	f.Add(applyBody(transport.OpID{ID: 1, Stage: transport.StageInsert},
		[]transport.InsertOp{{List: 2, Share: sampleShare(8, 80)}}, nil))
	f.Add(applyBody(transport.OpID{ID: 1, Stage: transport.StageDelete},
		nil, []transport.DeleteOp{{List: 1, ID: 3}}))
	f.Add(applyBody(transport.OpID{}, nil, nil))
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(applyBody(transport.OpID{ID: 1, Stage: 1}, nil, nil)[:9], 1<<32-1))

	f.Fuzz(func(t *testing.T, body []byte) {
		if status := transport.ServeApplyBody(srv, "fuzzed-token", body); status == 0 {
			t.Fatalf("unauthenticated apply accepted: body %x", body)
		}
		if got := serverFingerprint(srv); got != baseline {
			t.Fatalf("rejected apply mutated the server: %s -> %s (body %x)", baseline, got, body)
		}
	})
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
	if srv.Store().TotalElements() != 0 {
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
	if srv.Store().TotalElements() != 0 {
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

// TestBinaryDialScheme: the binary:// prefix dials like a bare
// host:port, and any other scheme (a stale http:// address) is refused
// by name before anything is dialed.
func TestBinaryDialScheme(t *testing.T) {
	srv, tok := newServer(t)
	bs := startBinary(t, srv, "")
	c, err := transport.DialBinary("binary://"+bs.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := transporttest.Insert(context.Background(), c, tok, []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"http", "https"} {
		_, err := transport.DialBinary(scheme+"://"+bs.Addr().String(), 2*time.Second)
		if err == nil || !strings.Contains(err.Error(), `scheme "`+scheme+`"`) {
			t.Errorf("DialBinary(%s://...) = %v, want an error naming the scheme", scheme, err)
		}
	}
}

// closingProxy relays TCP connections to a server. Once armed, it takes
// the next request bytes on the first connection (on every connection,
// with all), forwards them or not, and then closes that connection
// without relaying a response: with a FIN (EOF at the client) or, with
// reset, an RST. Every other connection is relayed whole.
type closingProxy struct {
	ln                  net.Listener
	armed               chan struct{}
	forward, reset, all bool
	accepted            atomic.Int32
}

func startClosingProxy(t *testing.T, upstream string, p *closingProxy) *closingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.ln, p.armed = ln, make(chan struct{})
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				return
			}
			t.Cleanup(func() { down.Close(); up.Close() })
			go io.Copy(down, up)
			go p.relay(down, up, p.accepted.Add(1) == 1 || p.all)
		}
	}()
	return p
}

func (p *closingProxy) relay(down, up net.Conn, closing bool) {
	buf := make([]byte, 64<<10)
	for {
		n, err := down.Read(buf)
		if err != nil {
			return
		}
		select {
		case <-p.armed:
			if !closing {
				break
			}
			// Close before forwarding: the response to a forwarded
			// request must not reach the client first.
			if p.reset {
				down.(*net.TCPConn).SetLinger(0)
			}
			down.Close()
			if p.forward {
				up.Write(buf[:n])
			}
			return
		default:
		}
		if _, err := up.Write(buf[:n]); err != nil {
			return
		}
	}
}

// TestBinaryRedialsAfterServerClose closes the server side of the
// client's cached connection between two calls, before the client has
// seen it die: the second call is written into the dead connection,
// meets EOF or a reset, and is sent once more on a fresh connection. A
// lookup and an Apply both succeed, and the Apply lands once, whether
// the lost request reached the server (the op window skips the resend)
// or not.
func TestBinaryRedialsAfterServerClose(t *testing.T) {
	for _, tc := range []struct {
		name           string
		forward, reset bool
		apply          bool
	}{
		{"lookup/eof", false, false, false},
		{"lookup/reset", false, true, false},
		{"apply/eof/lost", false, false, true},
		{"apply/reset/delivered", true, true, true},
		{"apply/eof/delivered", true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, tok := newServer(t)
			bs := startBinary(t, srv, "")
			p := startClosingProxy(t, bs.Addr().String(), &closingProxy{forward: tc.forward, reset: tc.reset})
			c, err := transport.DialBinary(p.ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			op := transport.OpID{ID: 7, Stage: transport.StageInsert}
			ins := []transport.InsertOp{{List: 1, Share: sampleShare(1, 1)}}
			if !tc.apply {
				if err := c.Apply(ctx, tok, op, ins, nil); err != nil {
					t.Fatal(err)
				}
			}
			close(p.armed)
			if tc.apply {
				err = c.Apply(ctx, tok, op, ins, nil)
			} else {
				var out map[merging.ListID][]posting.EncryptedShare
				out, err = c.GetPostingLists(ctx, tok, []merging.ListID{1})
				if err == nil && len(out[1]) != 1 {
					t.Fatalf("lookup after the redial returned %v", out)
				}
			}
			if err != nil {
				t.Fatalf("call on the closed connection was not redialed: %v", err)
			}
			if got := p.accepted.Load(); got != 2 {
				t.Fatalf("client opened %d connections, want the dial's and one redial", got)
			}
			if got := srv.Store().TotalElements(); got != 1 {
				t.Fatalf("server holds %d elements, want 1", got)
			}
		})
	}
}

// TestBinaryRedialsOnce: when the fresh connection is closed too, the
// call fails after its one redial instead of dialing in a loop.
func TestBinaryRedialsOnce(t *testing.T) {
	srv, tok := newServer(t)
	bs := startBinary(t, srv, "")
	p := startClosingProxy(t, bs.Addr().String(), &closingProxy{all: true})
	c, err := transport.DialBinary(p.ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	close(p.armed)
	if _, err := c.GetPostingLists(context.Background(), tok, []merging.ListID{1}); err == nil {
		t.Fatal("a call whose every connection closes under it succeeded")
	}
	if got := p.accepted.Load(); got != 2 {
		t.Fatalf("client opened %d connections, want the dial's and one redial", got)
	}
}

// stallingListener serves no one on its first connection: it answers
// the dial's x-coordinate request by hand and then never reads again, so
// a request larger than the socket buffers blocks its writer. Every later
// connection goes to whoever serves the listener.
type stallingListener struct {
	net.Listener
	accepted atomic.Int32
	stalled  chan net.Conn // holds the first connection until Close
}

func (l *stallingListener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil || l.accepted.Add(1) > 1 {
			return nc, err
		}
		payload, err := wal.ReadFrame(bufio.NewReader(nc))
		if err != nil || len(payload) < 8 {
			nc.Close()
			continue
		}
		// Request ID, kind xcoord, status OK, x = 5.
		resp := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(payload))
		resp = binary.LittleEndian.AppendUint64(append(resp, 1, 0, 0), 5)
		var buf bytes.Buffer
		wal.AppendFrame(&buf, resp)
		nc.Write(buf.Bytes())
		l.stalled <- nc
	}
}

func (l *stallingListener) Close() error {
	select {
	case nc := <-l.stalled:
		nc.Close()
	default:
	}
	return l.Listener.Close()
}

// TestBinaryWriteToStalledServer: a server that stops reading leaves a
// large request's write blocked. The call must still fail within its
// timeout, because the write carries the call timeout as its deadline;
// the connection, whose stream a half-written frame has desynced, must
// be dead afterwards, so the next call dials a fresh one instead of
// queueing behind the stuck write.
func TestBinaryWriteToStalledServer(t *testing.T) {
	srv, tok := newServer(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &stallingListener{Listener: inner, stalled: make(chan net.Conn, 1)}
	bs := transport.ServeBinary(ln, srv)
	t.Cleanup(func() { bs.Close() })
	const timeout = 300 * time.Millisecond
	c, err := transport.DialBinary(ln.Addr().String(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// About 16 MB, four times what Linux lets a loopback socket buffer.
	ins := make([]transport.InsertOp, 700_000)
	for i := range ins {
		ins[i] = transport.InsertOp{List: 1, Share: sampleShare(posting.GlobalID(i+1), uint64(i))}
	}
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- transporttest.Insert(context.Background(), c, tok, ins) }()
	const slack = 3 * time.Second
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("a 16 MB Apply to a server that never reads succeeded")
		}
		t.Logf("after %v: %v", time.Since(start), err)
	case <-time.After(timeout + slack):
		t.Fatalf("the call still hangs %v after it began, its timeout %v", time.Since(start), timeout)
	}

	out, err := c.GetPostingLists(context.Background(), tok, []merging.ListID{1})
	if err != nil {
		t.Fatalf("the call after the stalled write: %v", err)
	}
	if len(out[1]) != 0 {
		t.Fatalf("the stalled Apply reached a server: list 1 holds %d elements", len(out[1]))
	}
	if got := ln.accepted.Load(); got != 2 {
		t.Fatalf("client opened %d connections, want the stalled one and one fresh", got)
	}
}
