package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"

	"zerber/internal/wal"
)

// binMaxConnInflight bounds the request goroutines one connection may
// have running at once; excess pipelined requests queue in the reader.
const binMaxConnInflight = 64

// BinaryServer exposes an index server implementation over the binary
// framed protocol: one accept loop, and per connection a frame-reader
// goroutine plus a frame-writer goroutine with a bounded pool of
// request workers in between — so pipelined requests execute
// concurrently and responses return in completion order, matched by
// request ID.
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
// response and the connection lives on — mirroring the HTTP handler's
// clean-4xx-without-side-effects contract.
func (s *BinaryServer) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	// Requests inherit a per-connection context: a vanished client
	// cancels its outstanding work, like r.Context() under HTTP.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	writeCh := make(chan []byte, binMaxConnInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(nc, writeCh)
	}()

	sem := make(chan struct{}, binMaxConnInflight)
	var inflight sync.WaitGroup
	br := bufio.NewReader(nc)
	for {
		payload, err := wal.ReadFrame(br)
		if err != nil {
			break // EOF, torn, or corrupt: stream sync is gone
		}
		req, derr := decodeBinRequest(payload)
		if derr != nil {
			id, kind, ok := binPeekID(payload)
			if !ok {
				break
			}
			resp, ferr := encodeFrame(appendBinError(nil, id, kind, 400, derr.Error()))
			if ferr != nil {
				break
			}
			select {
			case writeCh <- resp:
			case <-writerDone:
			}
			continue
		}
		sem <- struct{}{}
		inflight.Add(1)
		go func() {
			defer func() { <-sem; inflight.Done() }()
			resp := s.dispatch(ctx, req)
			frame, err := encodeFrame(resp)
			if err != nil {
				// A response that exceeds the frame bound cannot be
				// sent; the capped error message always fits.
				frame, _ = encodeFrame(appendBinError(nil, req.id, req.kind, 400,
					fmt.Sprintf("response exceeds frame limit: %v", err)))
			}
			select {
			case writeCh <- frame:
			case <-writerDone:
			}
		}()
	}
	cancel()
	inflight.Wait()
	close(writeCh)
	<-writerDone
}

// connWriter drains writeCh into batched, flushed frame writes; on a
// write error it closes the socket (stopping the reader) and keeps
// draining so workers never block.
func (s *BinaryServer) connWriter(nc net.Conn, writeCh chan []byte) {
	bw := bufio.NewWriter(nc)
	dead := false
	write := func(frame []byte) {
		if dead {
			return
		}
		if _, err := bw.Write(frame); err != nil {
			dead = true
			nc.Close()
		}
	}
	for frame := range writeCh {
		write(frame)
		for drained := false; !drained && !dead; {
			select {
			case more, ok := <-writeCh:
				if !ok {
					drained = true
					break
				}
				write(more)
			default:
				drained = true
			}
		}
		if !dead {
			if err := bw.Flush(); err != nil {
				dead = true
				nc.Close()
			}
		}
	}
	if !dead {
		bw.Flush()
	}
}

// dispatch executes one decoded request against the API and encodes the
// response payload.
func (s *BinaryServer) dispatch(ctx context.Context, req binRequest) []byte {
	switch req.kind {
	case binMsgXCoord:
		x := s.api.XCoord().Uint64()
		return appendBinOK(nil, req.id, req.kind, func(dst []byte) []byte {
			return appendU64(dst, x)
		})
	case binMsgLookup:
		out, err := s.api.GetPostingLists(ctx, req.tok, req.lists)
		if err != nil {
			return appendBinError(nil, req.id, req.kind, statusCodeOf(err), err.Error())
		}
		dst := make([]byte, 0, 11+binLookupBodySize(out))
		return appendBinOK(dst, req.id, req.kind, func(dst []byte) []byte {
			return appendLookupBody(dst, out)
		})
	case binMsgLookupBlocks:
		page, err := s.api.GetPostingBlocks(ctx, req.tok, req.list, int(req.from), int(req.n))
		if err != nil {
			return appendBinError(nil, req.id, req.kind, statusCodeOf(err), err.Error())
		}
		dst := make([]byte, 0, 11+binBlockBodySize(page))
		return appendBinOK(dst, req.id, req.kind, func(dst []byte) []byte {
			return appendBlockBody(dst, page)
		})
	case binMsgApply:
		if err := s.api.Apply(ctx, req.tok, req.op, req.inserts, req.deletes); err != nil {
			return appendBinError(nil, req.id, req.kind, statusCodeOf(err), err.Error())
		}
		return appendBinOK(nil, req.id, req.kind, nil)
	}
	// Unreachable while decodeBinRequest rejects every other kind.
	return appendBinError(nil, req.id, req.kind, 400, errBinMalformed.Error())
}
