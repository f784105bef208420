package transport

import (
	"context"
	"sync"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Local wraps an in-process API implementation and accounts for the bytes
// that each call would move over the network under the tight wire
// encoding. The §7.3 bandwidth experiments read these counters.
type Local struct {
	api API

	mu      sync.Mutex
	sent    int64 // bytes client -> server
	recv    int64 // bytes server -> client
	queries int64
}

// NewLocal wraps api.
func NewLocal(api API) *Local { return &Local{api: api} }

var _ API = (*Local)(nil)

// XCoord returns the wrapped server's x-coordinate.
func (l *Local) XCoord() field.Element { return l.api.XCoord() }

// Apply forwards to the wrapped server and charges request bytes: the
// op-ID header plus both payload halves.
func (l *Local) Apply(ctx context.Context, tok auth.Token, op OpID, inserts []InsertOp, deletes []DeleteOp) error {
	l.charge(int64(len(tok))+OpIDBytes+
		int64(len(inserts))*(ListIDBytes+ShareBytes)+
		int64(len(deletes))*(ListIDBytes+8), 1)
	return l.api.Apply(ctx, tok, op, inserts, deletes)
}

// GetPostingLists forwards to the wrapped server and charges request and
// response bytes.
func (l *Local) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	l.charge(int64(len(tok))+int64(len(lists))*ListIDBytes, 1)
	out, err := l.api.GetPostingLists(ctx, tok, lists)
	if err != nil {
		return nil, err
	}
	var resp int64
	for _, shares := range out {
		resp += ListHeaderBytes + int64(len(shares))*ShareBytes
	}
	l.mu.Lock()
	l.recv += resp
	l.queries++
	l.mu.Unlock()
	return out, nil
}

// GetPostingBlocks forwards to the wrapped server and charges request and
// response bytes under the fixed-width page encoding.
func (l *Local) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (BlockPage, error) {
	l.charge(int64(len(tok))+BlockReqBytes, 1)
	page, err := l.api.GetPostingBlocks(ctx, tok, list, from, n)
	if err != nil {
		return BlockPage{}, err
	}
	l.mu.Lock()
	l.recv += BlockHeaderBytes + int64(len(page.Shares))*ShareBytes
	l.queries++
	l.mu.Unlock()
	return page, nil
}

func (l *Local) charge(req int64, _ int) {
	l.mu.Lock()
	l.sent += req
	l.mu.Unlock()
}

// BytesSent returns cumulative client-to-server bytes.
func (l *Local) BytesSent() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent
}

// BytesReceived returns cumulative server-to-client bytes.
func (l *Local) BytesReceived() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recv
}

// ResetCounters zeroes the byte accounting.
func (l *Local) ResetCounters() {
	l.mu.Lock()
	l.sent, l.recv, l.queries = 0, 0, 0
	l.mu.Unlock()
}
