package transport_test

import (
	"context"
	"errors"
	"testing"

	"zerber/internal/merging"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// TestHooksInterception pins the fault-hook wrapper the simulator and
// the fault-injection tests build on: Before can drop a call before
// delivery, After can fabricate a lost response after delivery, and
// call metadata identifies the method and payload.
func TestHooksInterception(t *testing.T) {
	srv, tok := newServer(t)
	ctx := context.Background()

	var calls []transport.Method
	dropUnconditional := false
	loseApplies := false
	h := transport.WithHooks(srv, transport.Hooks{
		Before: func(c transport.Call) error {
			calls = append(calls, c.Method)
			if dropUnconditional && c.Method == transport.MethodApply && c.Op.IsZero() {
				return errors.New("dropped before delivery")
			}
			return nil
		},
		After: func(c transport.Call, err error) error {
			if loseApplies && c.Method == transport.MethodApply && err == nil {
				return errors.New("response lost")
			}
			return err
		},
	})
	if h.XCoord() != srv.XCoord() {
		t.Fatal("XCoord passthrough broken")
	}

	// Dropped before delivery: the server never sees it.
	dropUnconditional = true
	err := transporttest.Insert(ctx, h, tok, []transport.InsertOp{{List: 1, Share: sampleShare(1, 10)}})
	if err == nil || srv.Store().TotalElements() != 0 {
		t.Fatalf("Before hook did not drop the call: err=%v, elements=%d", err, srv.Store().TotalElements())
	}
	dropUnconditional = false

	// Lost response: the state changes but the caller sees an error —
	// exactly the redelivery scenario the dedup window absorbs.
	loseApplies = true
	err = h.Apply(ctx, tok, transport.OpID{ID: 1, Stage: transport.StageInsert},
		[]transport.InsertOp{{List: 1, Share: sampleShare(2, 20)}}, nil)
	if err == nil || err.Error() != "response lost" {
		t.Fatalf("After hook did not replace the result: %v", err)
	}
	if srv.Store().TotalElements() != 1 {
		t.Fatalf("lost-response apply must still reach the server, elements=%d", srv.Store().TotalElements())
	}
	loseApplies = false

	// Clean passthrough for the remaining methods.
	if out, err := h.GetPostingLists(ctx, tok, []merging.ListID{1}); err != nil || len(out[1]) != 1 {
		t.Fatalf("lookup through hooks: %v, %v", out, err)
	}
	if err := transporttest.Delete(ctx, h, tok, []transport.DeleteOp{{List: 1, ID: 2}}); err != nil {
		t.Fatal(err)
	}
	want := []transport.Method{transport.MethodApply, transport.MethodApply, transport.MethodLookup, transport.MethodApply}
	if len(calls) != len(want) {
		t.Fatalf("hook saw %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %v (%s), want %v", i, calls[i], calls[i], want[i])
		}
	}
}
