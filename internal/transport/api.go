// Package transport defines the narrow wire interface of a Zerber index
// server — "only insert, delete, and look up posting elements" (§5) —
// as one mutation verb (Apply: a batch of inserts and deletes) and two
// lookups, together with its implementations and decorators:
//
//   - BinaryClient / ServeBinary: the one wire, length-prefixed CRC
//     frames over one pipelined TCP connection per server, built and
//     read in place in recycled buffers (framebuf.go states who owns
//     one when);
//   - Latency: a fixed simulated round-trip time per call;
//   - Hooked: before/after interception for fault injection.
//
// OpWindow and PayloadSum, the exactly-once memory behind Apply, live
// here too: they define what a redelivered Apply means on the wire.
package transport

import (
	"context"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// InsertOp adds one encrypted share to a merged posting list.
type InsertOp struct {
	List  merging.ListID
	Share posting.EncryptedShare
}

// DeleteOp removes one element (by global ID) from a merged posting list.
// Document IDs are encrypted, so owners delete element-by-element (§7.3:
// "To delete a document, its owner must delete each element separately").
type DeleteOp struct {
	List merging.ListID
	ID   posting.GlobalID
}

// OpID identifies one stage of one journaled peer mutation. A peer
// assigns each mutation a unique 64-bit operation ID and sends its
// insert stage and delete stage as separate Apply calls distinguished by
// Stage; together with the caller's verified identity, (ID, Stage) keys
// the server-side deduplication that makes redelivered mutations —
// client retries after a lost response, journal replay after a peer
// crash — exactly-once in effect. The zero OpID disables deduplication:
// the call is applied unconditionally, every time it is delivered.
type OpID struct {
	ID    uint64
	Stage uint8
}

// Mutation stages carried in an OpID.
const (
	// StageInsert is the first stage of every mutation: fresh elements
	// are upserted on all servers before anything is deleted, so an
	// interrupted update never loses the superseded postings.
	StageInsert uint8 = 1
	// StageDelete removes the superseded elements once every server
	// holds the fresh ones.
	StageDelete uint8 = 2
)

// IsZero reports whether the OpID disables deduplication.
func (o OpID) IsZero() bool { return o == OpID{} }

// API is the complete external interface of one index server. Every call
// carries a context.Context: implementations must observe cancellation so
// that a client fanning out to n servers can abandon stragglers once k
// responses are in (the Algorithm 2 first-k-of-n retrieval).
type API interface {
	// XCoord returns the server's public Shamir x-coordinate.
	XCoord() field.Element
	// Apply is the only mutation verb. It authenticates the caller and
	// applies one stage of a mutation: inserts are upserted by (list,
	// global ID) — the caller must belong to each share's group — then
	// deletes remove elements conditionally: an element already absent
	// is not an error, because an earlier delivery of the same stage
	// may have removed it. A non-zero op ID makes the call
	// idempotent: a server that already applied (caller, op) with an
	// identical payload acknowledges without re-applying or re-counting
	// stats, so redelivered mutations are exactly-once in effect.
	Apply(ctx context.Context, tok auth.Token, op OpID, inserts []InsertOp, deletes []DeleteOp) error
	// GetPostingLists authenticates the caller and returns, for each
	// requested list, the shares belonging to groups the caller is a
	// member of (paper §5.4.2), in the server's stored order.
	//
	// The map and every slice in it belong to the caller: an
	// implementation returns copies it keeps no reference to, so the
	// caller may reorder, overwrite or retain them, and nothing it does
	// reaches the server or another caller. (The client only reads
	// them: it joins shares by global ID without moving them.) Nor may
	// whatever carries a result onward (the binary server, framing it)
	// recycle it: a slice does not say where it came from, so a layer
	// reuses only buffers it allocated itself.
	GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error)
	// GetPostingBlocks is the paged lookup behind top-k retrieval
	// (Zerber+R §6): it authenticates the caller and returns the window
	// [from, from+n) of one score-ordered posting list, group-filtered
	// like GetPostingLists. The page reports the unfiltered list length
	// and the impact bucket of the first element past the window so the
	// client can bound the score of everything it has not fetched.
	// page.Shares is the caller's, like the slices of GetPostingLists.
	GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (BlockPage, error)
}

// BlockPage is one window of a score-ordered posting list.
type BlockPage struct {
	// Shares holds the group-filtered shares at positions [from, from+n)
	// of the list, highest impact first.
	Shares []posting.EncryptedShare
	// Total is the unfiltered length of the whole list.
	Total int
	// Next is the impact bucket of the element at position from+n, or 0
	// when the window reaches the end of the list.
	Next uint8
}

// Wire-size constants for the byte accounting (§7.3). A posting list
// request carries 4 bytes per list ID; a response carries WireBytes per
// share plus 4 bytes per list header.
const (
	ListIDBytes     = 4
	ShareBytes      = posting.WireBytes
	ListHeaderBytes = 4
	// OpIDBytes is the wire cost of the operation-ID header on an Apply
	// call: 8 bytes ID + 1 byte stage.
	OpIDBytes = 9
	// BlockReqBytes is the wire cost of a paged-lookup request beyond the
	// token: 4 bytes list ID + 4 bytes from + 4 bytes n.
	BlockReqBytes = ListIDBytes + 8
	// BlockHeaderBytes is the fixed-width page header on a paged-lookup
	// response: 4 bytes total + 1 byte next bucket + 4 bytes share count.
	BlockHeaderBytes = 9
)
