// Package transporttest holds the one helper the tests of every layer
// share for driving the single mutation verb: an unconditional Apply,
// that is one with the zero OpID, which no dedup window remembers.
package transporttest

import (
	"context"

	"zerber/internal/auth"
	"zerber/internal/transport"
)

// Insert upserts ops through api.Apply, unconditionally.
func Insert(ctx context.Context, api transport.API, tok auth.Token, ops []transport.InsertOp) error {
	return api.Apply(ctx, tok, transport.OpID{}, ops, nil)
}

// Delete removes ops through api.Apply, unconditionally. As on every
// Apply, an element already absent is not an error.
func Delete(ctx context.Context, api transport.API, tok auth.Token, ops []transport.DeleteOp) error {
	return api.Apply(ctx, tok, transport.OpID{}, nil, ops)
}
