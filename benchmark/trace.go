package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/transport"
)

// Layer names, outside in. The journal has no seam the benchmark can
// wrap, so its time is part of the peer layer's self time and is
// separated by a differential leg (see runTraced).
const (
	layerClient    = "client"
	layerPeer      = "peer"
	layerTransport = "transport"
	layerServer    = "server"
	layerStore     = "store"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's epoch on the monotonic clock.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root span
	Req    uint64 `json:"req"`    // ID of the root span of this request
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Server int    `json:"server"` // -1 above the fan-out
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Abandoned marks a call that returned an error — in these
	// workloads, a fan-out straggler the client cancelled after the k-th
	// response. It stays in the file but off the blocking path.
	Abandoned bool `json:"abandoned,omitempty"`
	// Elems is the count taken at the boundary: shares returned by a
	// read, operations carried by a write.
	Elems int `json:"elems,omitempty"`
	// Calls is above 1 when the span folds several back-to-back calls
	// (the per-element Upsert and DeleteIf calls of one Apply); its
	// length is then the sum of their durations.
	Calls int `json:"calls,omitempty"`

	method transport.Method // server spans: what kind of store call nests here
	lists  []merging.ListID // server read spans: the lists they scan
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// callKey identifies one in-flight wire call on both sides of the
// loopback connection: the wire carries no span ID, but token, method and
// arguments are the same in the client-side and the server-side
// decorator, and one closed-loop client never has two identical calls in
// flight to one server.
type callKey struct {
	method transport.Method
	tok    auth.Token
	a, b   uint64
}

// serverSide is the per-server matching state.
type serverSide struct {
	mu       sync.Mutex
	inflight map[callKey]*span // client-side transport spans awaiting their server span
	active   []*span           // server spans currently executing
	folds    map[uint64]*span  // server span ID -> its folded store write span
}

// tracer records spans in memory; nothing is written until the run ends.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64
	sides  []*serverSide

	mu    sync.Mutex
	spans []*span
	// storeCalls keeps every store call's duration by method, including
	// the folded ones, for the per-call percentiles.
	storeCalls map[string][]time.Duration
}

func newTracer(servers int) *tracer {
	t := &tracer{epoch: time.Now(), storeCalls: make(map[string][]time.Duration)}
	for i := 0; i < servers; i++ {
		t.sides = append(t.sides, &serverSide{
			inflight: make(map[callKey]*span),
			folds:    make(map[uint64]*span),
		})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(layer, name string, parent *span, server int) *span {
	s := &span{ID: t.nextID.Add(1), Layer: layer, Name: name, Server: server}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		s.Req = s.ID
	}
	s.Start = t.now()
	return s
}

// end closes a span and keeps it.
func (t *tracer) end(s *span, abandoned bool, elems int) {
	s.End = t.now()
	s.Abandoned = abandoned
	s.Elems = elems
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.storeCalls = make(map[string][]time.Duration)
	t.mu.Unlock()
}

// snapshot returns the recorded spans, ordered by start.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	out := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

type spanKey struct{}

// withSpan carries a root span to the transport decorator through the
// context the client hands down its fan-out.
func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// wireCounts are the boundary counts of the client-side transport
// decorator. They run whether or not spans are being recorded, so the
// correctness check can count the calls its fixed query set makes.
type wireCounts struct {
	calls, abandoned     atomic.Int64
	reqBytes             atomic.Int64 // Apply payloads at their wire widths
	applyCalls, applyOps atomic.Int64
}

// tracedAPI decorates the client side of one server connection. The
// parent of its spans comes from the context (client searches) or, for
// peers, whose calls carry context.Background, from slot: the root span
// the single mutator goroutine using this decorator set before calling.
type tracedAPI struct {
	transport.API // the connection; Insert, Delete and XCoord pass through

	t      *tracer
	server int
	slot   *atomic.Pointer[span]
	counts *wireCounts
}

func (a *tracedAPI) parent(ctx context.Context) *span {
	if !a.t.on.Load() {
		return nil
	}
	if s, ok := ctx.Value(spanKey{}).(*span); ok {
		return s
	}
	if a.slot != nil {
		return a.slot.Load()
	}
	return nil
}

// call runs one wire call under a transport span registered for the
// server-side decorator to find.
func (a *tracedAPI) call(ctx context.Context, key callKey, do func() (elems int, err error)) error {
	a.counts.calls.Add(1)
	parent := a.parent(ctx)
	if parent == nil {
		_, err := do()
		if err != nil {
			a.counts.abandoned.Add(1)
		}
		return err
	}
	s := a.t.begin(layerTransport, key.method.String(), parent, a.server)
	side := a.t.sides[a.server]
	side.mu.Lock()
	side.inflight[key] = s
	side.mu.Unlock()
	elems, err := do()
	side.mu.Lock()
	if side.inflight[key] == s {
		delete(side.inflight, key)
	}
	side.mu.Unlock()
	if err != nil {
		a.counts.abandoned.Add(1)
	}
	a.t.end(s, err != nil, elems)
	return err
}

func (a *tracedAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	a.counts.applyCalls.Add(1)
	a.counts.applyOps.Add(int64(len(inserts) + len(deletes)))
	a.counts.reqBytes.Add(int64(transport.OpIDBytes + len(inserts)*(transport.ListIDBytes+transport.ShareBytes) +
		len(deletes)*(transport.ListIDBytes+8)))
	return a.call(ctx, applyKey(op), func() (int, error) {
		return len(inserts) + len(deletes), a.API.Apply(ctx, tok, op, inserts, deletes)
	})
}

func (a *tracedAPI) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	var out map[merging.ListID][]posting.EncryptedShare
	err := a.call(ctx, lookupKey(tok, lists), func() (int, error) {
		var err error
		out, err = a.API.GetPostingLists(ctx, tok, lists)
		return countShares(out), err
	})
	return out, err
}

func (a *tracedAPI) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	var out transport.BlockPage
	err := a.call(ctx, blocksKey(tok, list, from), func() (int, error) {
		var err error
		out, err = a.API.GetPostingBlocks(ctx, tok, list, from, n)
		return len(out.Shares), err
	})
	return out, err
}

func countShares(lists map[merging.ListID][]posting.EncryptedShare) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

func applyKey(op transport.OpID) callKey {
	return callKey{method: transport.MethodApply, a: op.ID, b: uint64(op.Stage)}
}

func lookupKey(tok auth.Token, lists []merging.ListID) callKey {
	k := callKey{method: transport.MethodLookup, tok: tok, b: uint64(len(lists))}
	if len(lists) > 0 {
		k.a = uint64(lists[0])
	}
	return k
}

func blocksKey(tok auth.Token, list merging.ListID, from int) callKey {
	return callKey{method: transport.MethodLookupBlocks, tok: tok, a: uint64(list), b: uint64(from)}
}

// tracedServer decorates a server.Server before it is handed to
// ServeBinary: its spans are the server-side halves of the transport
// spans, so transport self time is encode, queueing, loopback and decode.
type tracedServer struct {
	transport.API // the server; Insert, Delete and XCoord pass through

	t      *tracer
	server int
}

func (s *tracedServer) run(key callKey, lists []merging.ListID, do func() (int, error)) error {
	if !s.t.on.Load() {
		_, err := do()
		return err
	}
	side := s.t.sides[s.server]
	side.mu.Lock()
	parent := side.inflight[key]
	side.mu.Unlock()
	if parent == nil {
		_, err := do()
		return err
	}
	sp := s.t.begin(layerServer, key.method.String(), parent, s.server)
	sp.method, sp.lists = key.method, lists
	side.mu.Lock()
	side.active = append(side.active, sp)
	side.mu.Unlock()
	elems, err := do()
	side.mu.Lock()
	for i, a := range side.active {
		if a == sp {
			side.active = append(side.active[:i], side.active[i+1:]...)
			break
		}
	}
	fold := side.folds[sp.ID]
	delete(side.folds, sp.ID)
	side.mu.Unlock()
	if fold != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, fold)
		s.t.mu.Unlock()
	}
	s.t.end(sp, err != nil, elems)
	return err
}

func (s *tracedServer) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	return s.run(applyKey(op), nil, func() (int, error) {
		return len(inserts) + len(deletes), s.API.Apply(ctx, tok, op, inserts, deletes)
	})
}

func (s *tracedServer) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	var out map[merging.ListID][]posting.EncryptedShare
	err := s.run(lookupKey(tok, lists), lists, func() (int, error) {
		var err error
		out, err = s.API.GetPostingLists(ctx, tok, lists)
		return countShares(out), err
	})
	return out, err
}

func (s *tracedServer) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	var out transport.BlockPage
	err := s.run(blocksKey(tok, list, from), []merging.ListID{list}, func() (int, error) {
		var err error
		out, err = s.API.GetPostingBlocks(ctx, tok, list, from, n)
		return len(out.Shares), err
	})
	return out, err
}

// tracedStore decorates the store.Store handed to server.Config. The
// Store interface carries no context, so a store call nests under the
// server span that is executing on its server with a matching method
// (and, for reads, a matching list). The traced leg runs one closed-loop
// client, so that span is unique up to a cancelled straggler.
type tracedStore struct {
	store.Store
	t      *tracer
	server int
}

// parentFor finds the executing server span a store call belongs to.
// Callers hold the side's lock.
func (side *serverSide) parentFor(method transport.Method, lid merging.ListID) *span {
	for i := len(side.active) - 1; i >= 0; i-- {
		sp := side.active[i]
		if sp.method != method {
			continue
		}
		if method == transport.MethodApply {
			return sp
		}
		for _, l := range sp.lists {
			if l == lid {
				return sp
			}
		}
	}
	return nil
}

// read records one Scan or ScanRange as a span of its own.
func (s *tracedStore) read(name string, method transport.Method, lid merging.ListID, do func() int) {
	if !s.t.on.Load() {
		do()
		return
	}
	side := s.t.sides[s.server]
	side.mu.Lock()
	parent := side.parentFor(method, lid)
	side.mu.Unlock()
	if parent == nil {
		do()
		return
	}
	sp := s.t.begin(layerStore, name, parent, s.server)
	n := do()
	s.t.end(sp, false, n)
	s.t.mu.Lock()
	s.t.storeCalls[name] = append(s.t.storeCalls[name], sp.dur())
	s.t.mu.Unlock()
}

// write times one Upsert or DeleteIf and folds it into its server
// span's single store-write span: an Apply makes one such call per list
// run or per element, far too many to keep one span each.
func (s *tracedStore) write(name string, elems int, do func()) {
	if !s.t.on.Load() {
		do()
		return
	}
	start := s.t.now()
	do()
	d := s.t.now() - start
	side := s.t.sides[s.server]
	side.mu.Lock()
	if parent := side.parentFor(transport.MethodApply, 0); parent != nil {
		fold := side.folds[parent.ID]
		if fold == nil {
			fold = &span{
				ID: s.t.nextID.Add(1), Parent: parent.ID, Req: parent.Req,
				Layer: layerStore, Name: "write", Server: s.server, Start: start, End: start,
			}
			side.folds[parent.ID] = fold
		}
		fold.End += d
		fold.Elems += elems
		fold.Calls++
	}
	side.mu.Unlock()
	s.t.mu.Lock()
	s.t.storeCalls[name] = append(s.t.storeCalls[name], time.Duration(d))
	s.t.mu.Unlock()
}

func (s *tracedStore) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	var out []posting.EncryptedShare
	s.read("scan", transport.MethodLookup, lid, func() int {
		out = s.Store.Scan(lid, keep)
		return len(out)
	})
	return out
}

func (s *tracedStore) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) ([]posting.EncryptedShare, int, uint8) {
	var (
		out   []posting.EncryptedShare
		total int
		next  uint8
	)
	s.read("scanrange", transport.MethodLookupBlocks, lid, func() int {
		out, total, next = s.Store.ScanRange(lid, from, n, keep)
		return len(out)
	})
	return out, total, next
}

func (s *tracedStore) Upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	var added int
	s.write("upsert", len(shares), func() { added = s.Store.Upsert(lid, shares) })
	return added
}

func (s *tracedStore) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (bool, bool) {
	var found, deleted bool
	s.write("deleteif", 1, func() { found, deleted = s.Store.DeleteIf(lid, gid, allow) })
	return found, deleted
}

// ---- span arithmetic ----

// spanTree indexes recorded spans by parent.
type spanTree struct {
	byID     map[uint64]*span
	children map[uint64][]*span
	roots    []*span
}

func buildTree(spans []*span) *spanTree {
	tr := &spanTree{byID: make(map[uint64]*span, len(spans)), children: make(map[uint64][]*span)}
	for _, s := range spans {
		tr.byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			tr.roots = append(tr.roots, s)
		} else {
			tr.children[s.Parent] = append(tr.children[s.Parent], s)
		}
	}
	return tr
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: overlapping children count once, and a child running
// past its parent's end (a server still working on a call its client
// abandoned) is clipped to the parent.
func (tr *spanTree) selfTime(s *span) time.Duration {
	kids := tr.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, c := range kids {
		a, b := c.Start, c.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		if v.a < edge {
			v.a = edge
		}
		covered += v.b - v.a
		edge = v.b
	}
	return s.dur() - time.Duration(covered)
}

// blockingPath splits a span's duration over the layers along the chain
// of calls its caller actually waited for, so the parts sum to the
// span's duration exactly. Walking back from the span's end, the child
// that finished last before the cursor is the one that was blocking;
// children still running at that point were parallel to it and are off
// the path, as are abandoned calls, which the caller did not wait for.
func (tr *spanTree) blockingPath(s *span, acc map[string]time.Duration) {
	kids := append([]*span(nil), tr.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
	cur := s.End
	for _, c := range kids {
		if c.Abandoned || c.End > cur || c.Start < s.Start {
			continue
		}
		acc[s.Layer] += time.Duration(cur - c.End)
		tr.blockingPath(c, acc)
		cur = c.Start
	}
	if cur > s.Start {
		acc[s.Layer] += time.Duration(cur - s.Start)
	}
}
