package transport

import (
	"context"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Method names one API call for the hook wrapper.
type Method uint8

// The hookable API methods.
const (
	MethodApply Method = iota + 1
	MethodLookup
	MethodLookupBlocks
)

// String returns the method's wire-path-like name.
func (m Method) String() string {
	switch m {
	case MethodApply:
		return "apply"
	case MethodLookup:
		return "lookup"
	case MethodLookupBlocks:
		return "lookupblocks"
	}
	return "unknown"
}

// Call describes one in-flight API call to a hook: the method, the
// mutation op ID (zero outside Apply), and the payload slices (nil for
// the halves a method does not carry). Hooks must treat the slices as
// read-only — they alias the caller's payload.
type Call struct {
	Method  Method
	Op      OpID
	Inserts []InsertOp
	Deletes []DeleteOp
	Lists   []merging.ListID
}

// Hooks intercepts API calls for fault injection and observation. Both
// hooks are optional. Before runs ahead of delivery: a non-nil error is
// returned to the caller and the call never reaches the wrapped server
// (a dropped request). After runs once the wrapped server returned: it
// receives the server's error and its return value replaces it, so a
// hook can fabricate a lost response (deliver, then return an error) or
// observe outcomes. Fault-injection tests (the peer's recovery tests
// among them) build on this wrapper; the simulator's fault-injecting
// sim.Transport wraps an API directly.
type Hooks struct {
	Before func(Call) error
	After  func(Call, error) error
}

// Hooked wraps an API with interception hooks; see Hooks.
type Hooked struct {
	api   API
	hooks Hooks
}

// WithHooks wraps api so every call runs the given hooks.
func WithHooks(api API, hooks Hooks) *Hooked {
	return &Hooked{api: api, hooks: hooks}
}

var _ API = (*Hooked)(nil)

// XCoord returns the wrapped server's x-coordinate (not hooked: the
// coordinate is static public data fetched at dial time).
func (h *Hooked) XCoord() field.Element { return h.api.XCoord() }

func (h *Hooked) run(call Call, deliver func() error) error {
	if h.hooks.Before != nil {
		if err := h.hooks.Before(call); err != nil {
			return err
		}
	}
	err := deliver()
	if h.hooks.After != nil {
		err = h.hooks.After(call, err)
	}
	return err
}

// Apply runs the hooks around the wrapped Apply.
func (h *Hooked) Apply(ctx context.Context, tok auth.Token, op OpID, inserts []InsertOp, deletes []DeleteOp) error {
	return h.run(Call{Method: MethodApply, Op: op, Inserts: inserts, Deletes: deletes}, func() error {
		return h.api.Apply(ctx, tok, op, inserts, deletes)
	})
}

// GetPostingLists runs the hooks around the wrapped lookup.
func (h *Hooked) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	var out map[merging.ListID][]posting.EncryptedShare
	err := h.run(Call{Method: MethodLookup, Lists: lists}, func() error {
		var derr error
		out, derr = h.api.GetPostingLists(ctx, tok, lists)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GetPostingBlocks runs the hooks around the wrapped paged lookup.
func (h *Hooked) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (BlockPage, error) {
	var out BlockPage
	err := h.run(Call{Method: MethodLookupBlocks, Lists: []merging.ListID{list}}, func() error {
		var derr error
		out, derr = h.api.GetPostingBlocks(ctx, tok, list, from, n)
		return derr
	})
	if err != nil {
		return BlockPage{}, err
	}
	return out, nil
}
