package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"

	"zerber/internal/posting"
)

// binMaxConnInflight bounds the request goroutines one connection may
// have running at once; excess pipelined requests queue in the reader.
const binMaxConnInflight = 64

// BinaryServer exposes an index server implementation over the binary
// framed protocol: one accept loop, and per connection a frame-reader
// goroutine that starts a bounded pool of request workers — so
// pipelined requests execute concurrently and responses return in
// completion order, matched by request ID. Each worker writes its own
// response, whole, under the connection's write lock.
//
// Frames live in pooled buffers (framebuf.go). A request frame is the
// connection reader's, released as soon as the request is decoded
// (decoding copies out). A response frame is built in place by the
// worker that ran the request, which releases it once written. The
// share slices a lookup returned are the server's alone (see API), so
// once they are framed the worker gives them to posting's pool.
type BinaryServer struct {
	ln  net.Listener
	api API

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeBinary starts serving api on ln and returns immediately; Close
// stops the accept loop and tears down every connection.
func ServeBinary(ln net.Listener, api API) *BinaryServer {
	s := &BinaryServer{ln: ln, api: api, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *BinaryServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection (cancelling the
// contexts of their in-flight requests), and waits for the connection
// goroutines to drain.
func (s *BinaryServer) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *BinaryServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Close) or broken; either way stop
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// serveConn runs one connection: frames in, responses out. A corrupt or
// torn frame poisons stream synchronization, so it drops the
// connection; a well-framed but malformed request gets an addressed 400
// response and the connection lives on: a rejected request is a clean
// 4xx without side effects.
func (s *BinaryServer) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	// Requests inherit a per-connection context: a vanished client
	// cancels its outstanding work.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// A frame is written whole under wmu; a write error closes the
	// socket, which stops the reader, and fails every later write at once.
	var wmu sync.Mutex
	send := func(frame *frameBuf) {
		wmu.Lock()
		_, err := nc.Write(frame.b)
		wmu.Unlock()
		frame.release()
		if err != nil {
			nc.Close()
		}
	}

	sem := make(chan struct{}, binMaxConnInflight)
	var inflight sync.WaitGroup
	br := bufio.NewReader(nc)
	for {
		in, err := readFrame(br)
		if err != nil {
			break // EOF, torn, or corrupt: stream sync is gone
		}
		req, reject, addressed := decodeRequest(in.b)
		in.release()
		if !addressed {
			break
		}
		if reject != nil {
			send(reject)
			continue
		}
		sem <- struct{}{}
		inflight.Add(1)
		go func() {
			defer func() { <-sem; inflight.Done() }()
			send(s.respond(ctx, req))
		}()
	}
	cancel()
	inflight.Wait()
}

// decodeRequest decodes one request payload. A well-framed but
// malformed request comes back as the addressed 400 frame to send in
// its place (the caller's); addressed is false when the payload is too
// short to name its request, and the connection must drop.
func decodeRequest(payload []byte) (req binRequest, reject *frameBuf, addressed bool) {
	req, err := decodeBinRequest(payload)
	if err == nil {
		return req, nil, true
	}
	id, kind, addressed := binPeekID(payload)
	if !addressed {
		return req, nil, false
	}
	return req, errorFrame(id, kind, 400, err.Error()), true
}

// errorFrame builds an addressed error response. The message is capped
// (appendBinError), so the frame always fits the bound.
func errorFrame(id uint64, kind byte, status uint16, msg string) *frameBuf {
	fb, _ := buildFrame(binRespHeaderSize+2+len(msg), func(dst []byte) []byte {
		return appendBinError(dst, id, kind, status, msg)
	})
	return fb
}

// respond executes one decoded request against the API and builds the
// response frame in place; the caller owns it. A response that exceeds
// the frame bound cannot be sent: the caller is told so instead.
func (s *BinaryServer) respond(ctx context.Context, req binRequest) *frameBuf {
	ok := func(bodySize int, body func(dst []byte) []byte) *frameBuf {
		frame, err := buildFrame(binRespHeaderSize+bodySize, func(dst []byte) []byte {
			return appendBinOK(dst, req.id, req.kind, body)
		})
		if err != nil {
			return errorFrame(req.id, req.kind, 400, fmt.Sprintf("response exceeds frame limit: %v", err))
		}
		return frame
	}
	failed := func(err error) *frameBuf {
		return errorFrame(req.id, req.kind, statusCodeOf(err), err.Error())
	}
	switch req.kind {
	case binMsgXCoord:
		x := s.api.XCoord().Uint64()
		return ok(8, func(dst []byte) []byte { return appendU64(dst, x) })
	case binMsgLookup:
		out, err := s.api.GetPostingLists(ctx, req.tok, req.lists)
		if err != nil {
			return failed(err)
		}
		frame := ok(binLookupBodySize(out), func(dst []byte) []byte { return appendLookupBody(dst, out) })
		for _, shares := range out {
			posting.PutShares(shares)
		}
		return frame
	case binMsgLookupBlocks:
		page, err := s.api.GetPostingBlocks(ctx, req.tok, req.list, int(req.from), int(req.n))
		if err != nil {
			return failed(err)
		}
		frame := ok(binBlockBodySize(page), func(dst []byte) []byte { return appendBlockBody(dst, page) })
		posting.PutShares(page.Shares)
		return frame
	case binMsgApply:
		if err := s.api.Apply(ctx, req.tok, req.op, req.inserts, req.deletes); err != nil {
			return failed(err)
		}
		return ok(0, nil)
	}
	// Unreachable while decodeBinRequest rejects every other kind.
	return failed(errBinMalformed)
}

// statusCodeOf maps an API error to the status an error response
// carries, in HTTP's numbering: authentication and authorization
// failures are 401 and 403, anything else a 400 so the caller sees the
// message.
func statusCodeOf(err error) uint16 {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "invalid token") || strings.Contains(msg, "expired token"):
		return 401
	case strings.Contains(msg, "not in the required group"):
		return 403
	default:
		return 400
	}
}
