package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Reconnect backoff bounds. After a failed dial the client refuses new
// dial attempts for the backoff window (calls inside it fail fast with
// the cached error), doubling up to the max. Variables so the reconnect
// tests can shrink them.
var (
	binBackoffMin = 25 * time.Millisecond
	binBackoffMax = 2 * time.Second
)

// errClientClosed reports a call on a closed BinaryClient.
var errClientClosed = errors.New("transport: binary client closed")

// BinaryClient talks to one index server over the binary framed
// protocol (see binarycodec.go) on a single persistent TCP connection
// with request pipelining: every call is tagged with a request ID,
// written whole by the calling goroutine under the connection's write
// lock, and matched to its response by the connection's one goroutine,
// its reader — so a connection carries many in-flight calls and none of
// them waits for another's round trip. The reader only routes: it hands
// the frame to the caller that is waiting for it, which decodes it on
// its own goroutine, so a 100 KB response does not hold up the
// connection's other calls and the response of an abandoned call (a
// straggler the fan-out cancelled) is dropped undecoded.
//
// Frames live in pooled buffers (framebuf.go), each with one owner. A
// request frame is built in place by the caller, who writes it and then
// releases it, or releases it unwritten if it gives up waiting for the
// write lock. A response frame is the reader's until it finds the call
// waiting for it: then it is that call's, and finish releases it after
// decoding. When nobody is waiting — the abandoned-call rule —
// the reader releases it itself. So exactly one of the two releases a
// response buffer, except one handed over in the instant its caller gave
// up: that is never read and goes to the garbage collector.
//
// A broken connection fails every in-flight call and is re-dialed
// lazily with exponential backoff on the next call; a call it failed
// before its response arrived is sent once more (see redialable). That
// is safe for every kind: lookups are idempotent, a server process
// dedups an Apply stage by (caller, op ID, stage), and a restarted one,
// its op window empty, converges on re-apply (inserts upsert, deletes
// skip absent elements), as on the peer's own resend of a stage.
type BinaryClient struct {
	addr    string
	timeout time.Duration
	x       field.Element

	mu      sync.Mutex
	conn    *binConn
	closed  bool
	nextID  uint64
	backoff time.Duration
	retryAt time.Time
	lastErr error
}

// DialBinary connects to an index server at addr ("host:port", with an
// optional "binary://" prefix) and fetches its public x-coordinate. An
// address with any other scheme is refused by name: the binary protocol
// is the only one an index server speaks. timeout bounds the dial and
// each subsequent call; non-positive means 10s.
func DialBinary(addr string, timeout time.Duration) (*BinaryClient, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	addr = strings.TrimPrefix(addr, "binary://")
	if scheme, _, ok := strings.Cut(addr, "://"); ok {
		return nil, fmt.Errorf("transport: dialing %s: scheme %q is not served; index servers speak only the binary protocol (host:port or binary://host:port)", addr, scheme)
	}
	c := &BinaryClient{addr: addr, timeout: timeout}
	resp, err := c.call(context.Background(), binRequest{kind: binMsgXCoord})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: dialing binary %s: %w", addr, err)
	}
	xe, err := field.Check(resp.x)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: server x-coordinate: %w", err)
	}
	c.x = xe
	return c, nil
}

var _ API = (*BinaryClient)(nil)

// Addr returns the dialed address.
func (c *BinaryClient) Addr() string { return c.addr }

// XCoord returns the server's x-coordinate fetched at dial time.
func (c *BinaryClient) XCoord() field.Element { return c.x }

// Apply sends one mutation stage.
func (c *BinaryClient) Apply(ctx context.Context, tok auth.Token, op OpID, inserts []InsertOp, deletes []DeleteOp) error {
	_, err := c.call(ctx, binRequest{kind: binMsgApply, tok: tok, op: op, inserts: inserts, deletes: deletes})
	return err
}

// GetPostingLists sends a lookup and returns the decoded share map. Its
// slices come from posting's pool and are the caller's alone.
func (c *BinaryClient) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	resp, err := c.call(ctx, binRequest{kind: binMsgLookup, tok: tok, lists: lists})
	if err != nil {
		return nil, err
	}
	out := resp.lists
	if out == nil {
		out = map[merging.ListID][]posting.EncryptedShare{}
	}
	return out, nil
}

// GetPostingBlocks sends a lookupblocks request and awaits the page.
func (c *BinaryClient) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (BlockPage, error) {
	if from < 0 {
		from = 0
	}
	if n < 0 {
		n = 0
	}
	resp, err := c.call(ctx, binRequest{kind: binMsgLookupBlocks, tok: tok, list: list, from: uint32(from), n: uint32(n)})
	if err != nil {
		return BlockPage{}, err
	}
	return resp.page, nil
}

// Close tears down the connection and returns once its reader has
// exited; in-flight calls fail.
func (c *BinaryClient) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.die(errClientClosed)
		<-conn.readerDone
	}
	return nil
}

// call runs one request/response exchange over the shared connection,
// and once more on a fresh one if the first was closed under it.
func (c *BinaryClient) call(ctx context.Context, req binRequest) (binResponse, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	resp, err := c.attempt(ctx, req)
	if redialable(err) {
		resp, err = c.attempt(ctx, req)
	}
	return resp, err
}

// redialable reports whether a call failed because its connection was
// closed (EOF at a frame boundary) or reset by the server before the
// call's response arrived: what a call meets on the cached connection of
// a server that restarted, and which one fresh connection cures. A torn
// response, a failed dial, a status or a cancelled context is not.
func redialable(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// attempt is one exchange of call on the current connection.
func (c *BinaryClient) attempt(ctx context.Context, req binRequest) (binResponse, error) {
	name := binKindName(req.kind)
	conn, id, call, err := c.register()
	if err != nil {
		return binResponse{}, fmt.Errorf("transport: %s %s: %w", name, c.addr, err)
	}
	req.id = id
	frame, err := buildFrame(binRequestSize(&req), func(dst []byte) []byte { return appendBinRequest(dst, &req) })
	if err != nil {
		conn.unregister(id)
		return binResponse{}, fmt.Errorf("transport: %s %s: %w", name, c.addr, err)
	}
	select {
	case conn.writing <- struct{}{}:
		conn.write(frame) // a failed write fails the call below
		<-conn.writing
		frame.release()
	case <-conn.done:
		frame.release()
		conn.unregister(id)
		return binResponse{}, fmt.Errorf("transport: %s %s: %w", name, c.addr, conn.failure())
	case <-ctx.Done():
		frame.release()
		conn.unregister(id)
		return binResponse{}, ctx.Err()
	}
	select {
	case res := <-call.ch:
		return c.finish(conn, name, req.kind, res)
	case <-conn.done:
		// The connection died; a response may still have been delivered
		// just before, so prefer it over the connection error.
		select {
		case res := <-call.ch:
			return c.finish(conn, name, req.kind, res)
		default:
			conn.unregister(id)
			return binResponse{}, fmt.Errorf("transport: %s %s: %w", name, c.addr, conn.failure())
		}
	case <-ctx.Done():
		// Abandon the call: the reader drops (and recycles) responses
		// without a pending entry, so the connection stays usable.
		conn.unregister(id)
		return binResponse{}, ctx.Err()
	}
}

// finish turns one delivered result into the call's return values,
// decoding the response frame on the calling goroutine and releasing
// its buffer. A frame that does not decode, or answers a different kind
// of request, means the stream cannot be trusted: the connection dies
// with the call.
func (c *BinaryClient) finish(conn *binConn, name string, kind byte, res binResult) (binResponse, error) {
	if res.err != nil {
		return binResponse{}, fmt.Errorf("transport: %s %s: %w", name, c.addr, res.err)
	}
	resp, err := decodeBinResponse(res.frame.b)
	res.frame.release()
	if err == nil && resp.kind != kind {
		err = fmt.Errorf("transport: response kind %s for a %s request", binKindName(resp.kind), name)
	}
	if err != nil {
		conn.die(err)
		return binResponse{}, fmt.Errorf("transport: %s %s: %w", name, c.addr, err)
	}
	if resp.status != 0 {
		// Status-sensitive callers (and the conformance tests) match
		// on "status NNN".
		return binResponse{}, fmt.Errorf("transport: %s: status %d: %s",
			name, resp.status, resp.msg)
	}
	return resp, nil
}

// register returns a live connection (dialing under the backoff policy
// if needed) with a fresh request ID already registered on it.
func (c *BinaryClient) register() (*binConn, uint64, *binCall, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, nil, errClientClosed
	}
	if c.conn == nil || c.conn.isDead() {
		c.conn = nil
		if now := time.Now(); now.Before(c.retryAt) {
			return nil, 0, nil, fmt.Errorf("reconnect backoff (%v left): %w",
				c.retryAt.Sub(now).Round(time.Millisecond), c.lastErr)
		}
		nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			c.backoff *= 2
			if c.backoff < binBackoffMin {
				c.backoff = binBackoffMin
			}
			if c.backoff > binBackoffMax {
				c.backoff = binBackoffMax
			}
			c.retryAt = time.Now().Add(c.backoff)
			c.lastErr = err
			return nil, 0, nil, err
		}
		c.backoff, c.retryAt, c.lastErr = 0, time.Time{}, nil
		c.conn = newBinConn(nc, c.timeout)
	}
	id := c.nextID
	c.nextID++
	call := c.conn.add(id)
	return c.conn, id, call, nil
}

// binResult is one call's outcome, delivered by the reader goroutine:
// the response frame's payload, still encoded, in a buffer the receiver
// now owns, or the connection's failure.
type binResult struct {
	frame *frameBuf
	err   error
}

type binCall struct {
	ch chan binResult // buffered; the reader never blocks on delivery
}

// binConn is one live connection. Each call writes its own request
// frame, whole, while it holds the write lock (writing); the
// connection's one goroutine reads response frames and dispatches them
// to pending calls by request ID.
type binConn struct {
	nc         net.Conn
	timeout    time.Duration // bounds each frame write
	writing    chan struct{} // one slot: the write lock, which a waiter can give up on
	done       chan struct{}
	readerDone chan struct{}

	mu      sync.Mutex
	pending map[uint64]*binCall
	err     error
}

func newBinConn(nc net.Conn, timeout time.Duration) *binConn {
	bc := &binConn{
		nc:         nc,
		timeout:    timeout,
		writing:    make(chan struct{}, 1),
		done:       make(chan struct{}),
		readerDone: make(chan struct{}),
		pending:    make(map[uint64]*binCall),
	}
	go bc.readLoop()
	return bc
}

func (bc *binConn) add(id uint64) *binCall {
	call := &binCall{ch: make(chan binResult, 1)}
	bc.mu.Lock()
	bc.pending[id] = call
	bc.mu.Unlock()
	return call
}

func (bc *binConn) unregister(id uint64) {
	bc.mu.Lock()
	delete(bc.pending, id)
	bc.mu.Unlock()
}

// take removes and returns the pending call for id (nil if abandoned).
func (bc *binConn) take(id uint64) *binCall {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	call := bc.pending[id]
	delete(bc.pending, id)
	return call
}

func (bc *binConn) isDead() bool {
	select {
	case <-bc.done:
		return true
	default:
		return false
	}
}

func (bc *binConn) failure() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.err != nil {
		return bc.err
	}
	return errors.New("transport: connection closed")
}

// die marks the connection broken exactly once: the socket closes
// (unblocking the reader and any write), and every pending call fails
// with err.
func (bc *binConn) die(err error) {
	bc.mu.Lock()
	if bc.err != nil {
		bc.mu.Unlock()
		return
	}
	bc.err = err
	calls := bc.pending
	bc.pending = make(map[uint64]*binCall)
	bc.mu.Unlock()
	close(bc.done)
	bc.nc.Close()
	for _, call := range calls {
		call.ch <- binResult{err: err}
	}
}

// write sends one frame; the caller holds the write lock. A write that
// has begun is never abandoned, since half a frame would desync every
// call sharing the connection; the deadline, the call timeout, is what
// bounds it. Any failure, a missed deadline included, kills the
// connection.
func (bc *binConn) write(frame *frameBuf) {
	err := bc.nc.SetWriteDeadline(time.Now().Add(bc.timeout))
	if err == nil {
		_, err = bc.nc.Write(frame.b)
	}
	if err != nil {
		bc.die(fmt.Errorf("transport: write: %w", err))
	}
}

func (bc *binConn) readLoop() {
	defer close(bc.readerDone)
	br := bufio.NewReader(bc.nc)
	for {
		frame, err := readFrame(br)
		if err != nil {
			bc.die(fmt.Errorf("transport: read: %w", err))
			return
		}
		id, _, ok := binPeekID(frame.b)
		if !ok {
			frame.release()
			bc.die(fmt.Errorf("%w: truncated response header", errBinMalformed))
			return
		}
		if call := bc.take(id); call != nil {
			call.ch <- binResult{frame: frame}
		} else {
			// No pending entry: the caller gave up (context
			// cancellation); the response is dropped undecoded and the
			// connection stays in sync.
			frame.release()
		}
	}
}
