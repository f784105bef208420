// Package server implements one Zerber index server (paper Fig. 3): the
// encrypted merged posting lists, the user-group metadata, and the access
// control enforced on every mutation and lookup.
//
// A server stores, per merged posting list, the shares destined for its
// own x-coordinate: tuples (global element ID, group ID, share value).
// It never sees plaintext elements; even its own administrator learns only
// combined list lengths and group memberships, which is exactly the view
// the r-confidentiality analysis grants the adversary (§7.1).
//
// Share storage lives behind the store.Store interface (package store):
// the server is a policy layer — authentication, group checks, activity
// stats — over a pluggable storage engine. The server re-exports none of
// the engine's views. Trusted paths — proactive resharing, state checks,
// and the adversary view of a compromised box (Store().ListLengths() and
// Store().Scan(lid, nil), §5.2) — use Store() directly; they never see
// plaintext either, because the engine only ever holds encrypted shares.
// DHT migration runs below the server, inside a dht.Slot engine.
//
// # Durability
//
// Apply is the only client-facing mutation, and the storage engine is
// the server's only log. Apply ends by calling Store.Sync, the engine's
// batch boundary, and returns its error, so an acknowledged Apply is
// exactly as durable as the engine makes a synced batch. For the in-memory
// engine that is nothing: state dies with the process. For store.Disk
// it depends on DiskOptions.Sync, which cmd/zerber-server turns on for
// -store-engine disk:
//
//   - Sync on: the acknowledged stage has been fsynced — once per
//     Apply, however many lists it touched — and survives a process kill
//     and a power loss alike.
//   - Sync off (the library default; what the simulator and the
//     benchmark run): every store call has been written to the OS before
//     it returns, so a process kill loses nothing that was acknowledged;
//     a power loss or kernel crash may lose every frame since the
//     engine's last fsync (segment rollover, compaction, Close).
//
// Either way a crash mid-Apply can leave a prefix of the stage's store
// calls on disk: each call is one CRC frame, atomic on its own, and the
// unacknowledged stage is simply re-applied by the peer's retry (upserts
// replace, deletes are conditional). The op-dedup window is memory only;
// a redelivery after a restart re-applies, which converges for the same
// reason.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/transport"
)

// ErrUnauthorized rejects a mutation of a group the caller is not in.
var ErrUnauthorized = errors.New("server: caller not in the required group")

// Config configures an index server.
type Config struct {
	// Name is a human-readable label used in logs and errors.
	Name string
	// X is the server's public, unique, non-zero Shamir x-coordinate.
	X field.Element
	// Auth verifies tokens minted by the enterprise authentication
	// service (shared verification key).
	Auth *auth.Service
	// Groups is the server's user-group table. Several servers may share
	// one table object in simulations; real deployments replicate it.
	Groups *auth.GroupTable
	// Store is the storage engine holding the encrypted shares. Nil
	// selects the in-memory default, store.NewSharded(0).
	Store store.Store
}

// Server is one index server. It is safe for concurrent use.
type Server struct {
	cfg Config
	st  store.Store

	// ops remembers recently applied mutation stages per caller so a
	// redelivered Apply (client retry after a lost response, journal
	// replay after a peer crash) is exactly-once in effect.
	ops *transport.OpWindow

	// Activity counters are atomic and updated once per batch, not once
	// per element, so hot-path inserts don't serialize on a stats mutex.
	inserts, deletes, lookups, served atomic.Int64
}

// Stats counts server activity. Its readers are the sim's checks,
// examples/enterprise and the tests.
type Stats struct {
	Inserts        int64
	Deletes        int64
	Lookups        int64
	ElementsServed int64
}

// New constructs a server. It panics on a zero x-coordinate, which would
// leak the secret (f(0) = a0): that is a programming error, not a runtime
// condition.
func New(cfg Config) *Server {
	if cfg.X == 0 {
		panic("server: x-coordinate 0 is reserved for the secret")
	}
	if cfg.Auth == nil || cfg.Groups == nil {
		panic("server: Auth and Groups are required")
	}
	st := cfg.Store
	if st == nil {
		st = store.NewSharded(0)
	}
	return &Server{cfg: cfg, st: st, ops: transport.NewOpWindow()}
}

var _ transport.API = (*Server)(nil)

// Name returns the server's label.
func (s *Server) Name() string { return s.cfg.Name }

// XCoord returns the server's public Shamir x-coordinate.
func (s *Server) XCoord() field.Element { return s.cfg.X }

// Groups exposes the server's group table so the group coordinator can
// manage membership (outside the narrow query interface, §5.3).
func (s *Server) Groups() *auth.GroupTable { return s.cfg.Groups }

// Store exposes the storage engine for the trusted paths that operate
// below the client API: proactive resharing (package proactive) and
// adversary simulation (an attacker who owns the box reads the engine
// directly). Clients never touch it; every client-facing operation goes
// through the authenticated methods below.
func (s *Server) Store() store.Store { return s.st }

// authorizeInserts checks group membership for every share before any
// mutation, so a rejected batch changes nothing.
func (s *Server) authorizeInserts(memberOf auth.GroupSet, ops []transport.InsertOp) error {
	for _, op := range ops {
		if !memberOf.Has(auth.GroupID(op.Share.Group)) {
			return fmt.Errorf("%s: insert into group %d: %w", s.cfg.Name, op.Share.Group, ErrUnauthorized)
		}
	}
	return nil
}

// upsertAll writes an authorized insert batch into the store, entering
// it once per touched list rather than once per element. The peer
// shuffles a whole payload (§5.4.1), so a list's shares arrive scattered:
// the batch is sorted by list, stably, which keeps each list's shares in
// arrival order, so a global ID named twice ends with its later share,
// as one-by-one application would leave it.
// It returns how many shares were newly appended: idempotent re-inserts
// (an owner retrying after a partial failure) replace and are not counted.
func (s *Server) upsertAll(ops []transport.InsertOp) int {
	byList := slices.Clone(ops)
	slices.SortStableFunc(byList, func(a, b transport.InsertOp) int { return cmp.Compare(a.List, b.List) })
	shares := make([]posting.EncryptedShare, len(byList))
	for i, op := range byList {
		shares[i] = op.Share
	}
	added := 0
	for i := 0; i < len(byList); {
		j := i + 1
		for j < len(byList) && byList[j].List == byList[i].List {
			j++
		}
		added += s.st.Upsert(byList[i].List, shares[i:j])
		i = j
	}
	return added
}

// deleteAll removes the addressed elements whose group the caller
// belongs to, counting stats once per batch. An element already absent
// is skipped; an element in a foreign group aborts with ErrUnauthorized
// after the stats of the removals so far are recorded.
func (s *Server) deleteAll(memberOf auth.GroupSet, ops []transport.DeleteOp) error {
	var removed int64
	defer func() {
		if removed > 0 {
			s.deletes.Add(removed)
		}
	}()
	var deniedGroup uint32
	allow := func(sh posting.EncryptedShare) bool {
		if !memberOf.Has(auth.GroupID(sh.Group)) {
			deniedGroup = sh.Group
			return false
		}
		return true
	}
	for _, op := range ops {
		found, deleted := s.st.DeleteIf(op.List, op.ID, allow)
		if found && !deleted {
			return fmt.Errorf("%s: delete from group %d: %w", s.cfg.Name, deniedGroup, ErrUnauthorized)
		}
		if deleted {
			removed++
		}
	}
	return nil
}

// Apply authenticates the caller and applies one mutation stage: group
// membership is checked for every insert before anything is written, so
// a rejected batch changes nothing; inserts are upserted, then deletes
// remove elements conditionally (absence is not an error — an earlier
// delivery of the same stage may already have removed them). A non-zero
// op ID deduplicates redeliveries: a stage this caller already applied
// with an identical payload returns nil without touching the store or
// the stats, so retried mutations are exactly-once in effect. The window
// is bounded (see transport.OpWindow); an evicted op re-applies, which
// still converges because upserts replace by (list, global ID).
//
// The stage is acknowledged only after the store's batch boundary: one
// Sync per Apply, whose failure is Apply's error (see the package doc
// for what that buys per engine).
func (s *Server) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	if !op.IsZero() && op.Stage != transport.StageInsert && op.Stage != transport.StageDelete {
		// An unknown stage would still dedup and apply, but it cannot
		// have come from a correct peer: reject it before any mutation
		// rather than let a corrupted or adversarial frame through.
		return fmt.Errorf("%s: op %d: unknown mutation stage %d", s.cfg.Name, op.ID, op.Stage)
	}
	user, err := s.cfg.Auth.Verify(tok)
	if err != nil {
		return fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	memberOf := s.cfg.Groups.GroupSetOf(user)
	if err := s.authorizeInserts(memberOf, inserts); err != nil {
		return err
	}
	var sum uint32
	if !op.IsZero() {
		sum = transport.PayloadSum(inserts, deletes)
		if s.ops.Seen(user, op, sum) {
			return nil
		}
	}
	if added := s.upsertAll(inserts); added > 0 {
		s.inserts.Add(int64(added))
	}
	// A failure below is not recorded in the window: the retry must
	// re-apply (and re-sync).
	if err := s.deleteAll(memberOf, deletes); err != nil {
		return err
	}
	if err := s.st.Sync(); err != nil {
		return fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	if !op.IsZero() {
		s.ops.Record(user, op, sum)
	}
	return nil
}

// keepGroups returns the scan filter of one request: it accepts the
// shares of the caller's groups, as the set stood when the request
// resolved it.
func keepGroups(memberOf auth.GroupSet) func(posting.EncryptedShare) bool {
	return func(sh posting.EncryptedShare) bool { return memberOf.Has(auth.GroupID(sh.Group)) }
}

// GetPostingLists authenticates the caller and returns, for each
// requested list, only the shares whose group the caller belongs to
// (Algorithm 2, server side). Unknown lists come back empty: the mapping
// table is public, so list existence is not a secret. A list named more
// than once is scanned, returned and counted once.
func (s *Server) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	user, err := s.cfg.Auth.Verify(tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	authorized := keepGroups(s.cfg.Groups.GroupSetOf(user))

	out := make(map[merging.ListID][]posting.EncryptedShare, len(lists))
	served := int64(0)
	for _, lid := range lists {
		if _, done := out[lid]; done {
			continue
		}
		// An in-process caller that cancels stops the scan between
		// lists. Over the binary wire ctx is the connection's, which a
		// client's cancellation never reaches: the call runs to the end
		// and the client drops the response unread.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.cfg.Name, err)
		}
		acc := s.st.Scan(lid, authorized)
		out[lid] = acc
		served += int64(len(acc))
	}
	s.lookups.Add(1)
	s.served.Add(served)
	return out, nil
}

// GetPostingBlocks authenticates the caller and returns one window of a
// score-ordered posting list, filtered to the caller's groups (the
// Zerber+R §6 paged lookup). Total and Next describe the unfiltered
// list — list lengths and the public impact buckets are already inside
// the leak budget (§5.2), and the top-k client needs them to bound the
// unfetched remainder.
func (s *Server) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	if err := ctx.Err(); err != nil {
		return transport.BlockPage{}, fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	user, err := s.cfg.Auth.Verify(tok)
	if err != nil {
		return transport.BlockPage{}, fmt.Errorf("%s: %w", s.cfg.Name, err)
	}
	shares, total, next := s.st.ScanRange(list, from, n, keepGroups(s.cfg.Groups.GroupSetOf(user)))
	s.lookups.Add(1)
	s.served.Add(int64(len(shares)))
	return transport.BlockPage{Shares: shares, Total: total, Next: next}, nil
}

// StatsSnapshot returns a copy of the activity counters.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		Inserts:        s.inserts.Load(),
		Deletes:        s.deletes.Load(),
		Lookups:        s.lookups.Load(),
		ElementsServed: s.served.Load(),
	}
}
