package transport

import (
	"sync"

	"zerber/internal/auth"
)

// opWindowCap is how many recently applied mutation stages one FIFO of
// an OpWindow remembers. A peer retries a stage until it is acknowledged
// and never has more than a handful of mutations in flight, so a few
// hundred entries cover any realistic redelivery window. An op evicted
// from the window is re-applied on redelivery, which converges — inserts
// upsert by (list, global ID) and Apply's deletes are conditional —
// unless a deletion of the same elements landed in between; the window
// otherwise only spares the redundant work and keeps the activity stats
// exact.
const opWindowCap = 1024

// OpWindow is the dedup memory behind Apply: a bounded FIFO of applied
// stages with their payload checksums (see PayloadSum for the
// skip-vs-reapply semantics). Op IDs are unique per caller, not
// globally, so the window is keyed by the verified user and keeps one
// FIFO per user: callers are enterprise users, bounded by the group
// table, and one caller's traffic never evicts another's entries.
type OpWindow struct {
	mu    sync.Mutex
	sums  map[opKey]uint32
	fifos map[auth.UserID]*opFIFO
}

// opKey identifies one mutation stage of one caller. The stored checksum
// guards against the one hazard of ID-based dedup: the same (ID, stage)
// redelivered with a different payload must be re-applied, not skipped,
// or elements silently go missing.
type opKey struct {
	caller auth.UserID
	id     uint64
	stage  uint8
}

// opFIFO is the eviction order of up to opWindowCap recorded keys.
type opFIFO struct {
	keys []opKey
	next int
}

// NewOpWindow returns an empty window holding opWindowCap stages per
// caller.
func NewOpWindow() *OpWindow {
	return &OpWindow{sums: make(map[opKey]uint32), fifos: make(map[auth.UserID]*opFIFO)}
}

// Seen reports whether the caller already applied this stage with an
// identical payload.
func (w *OpWindow) Seen(caller auth.UserID, op OpID, sum uint32) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	prev, ok := w.sums[opKey{caller, op.ID, op.Stage}]
	return ok && prev == sum
}

// Record remembers a fully applied stage, evicting the oldest entry of
// its FIFO once that is full.
func (w *OpWindow) Record(caller auth.UserID, op OpID, sum uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := opKey{caller, op.ID, op.Stage}
	if _, ok := w.sums[key]; ok {
		w.sums[key] = sum // payload changed: update in place
		return
	}
	f := w.fifos[caller]
	if f == nil {
		f = &opFIFO{}
		w.fifos[caller] = f
	}
	if len(f.keys) < opWindowCap {
		f.keys = append(f.keys, key)
	} else {
		delete(w.sums, f.keys[f.next])
		f.keys[f.next] = key
		f.next = (f.next + 1) % opWindowCap
	}
	w.sums[key] = sum
}
