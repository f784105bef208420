package sim

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind classifies one simulation operation.
type Kind uint8

// The operation kinds a program is built from. Every kind is total: an
// op that does not apply to the current state (deleting an unknown
// document, downing a server that is already down) executes as a no-op,
// so any subsequence of a program is itself a valid program — the
// property delta-debugging shrinking depends on.
const (
	// KindIndex indexes (or, if Doc is live, updates) a document with
	// the given content and group; an update may move the document to
	// another group.
	KindIndex Kind = iota + 1
	// KindDelete removes Doc if it is live.
	KindDelete
	// KindBatchAdd stages a document into the peer's batch, whether Doc
	// is fresh, live, in flight or already staged (the last Add of an
	// ID wins).
	KindBatchAdd
	// KindBatchFlush drains the peer's pending operation, then flushes
	// the batch (if anything is staged) as one journaled operation.
	KindBatchFlush
	// KindSearch runs User's keyword Query; the answer set is compared
	// against the oracle whenever the cluster is quiescent.
	KindSearch
	// KindGroupAdd puts User into Group on every server and the oracle.
	KindGroupAdd
	// KindGroupRemove revokes User's Group membership immediately.
	KindGroupRemove
	// KindServerDown takes Server out (sticky outage) if at most n-k-1
	// servers are already down, so retrieval stays possible.
	KindServerDown
	// KindServerUp brings Server back.
	KindServerUp
	// KindReshare runs one proactive resharing round; it must succeed
	// when the cluster is quiescent and may refuse otherwise.
	KindReshare
	// KindCompact rewrites the peer's journal (must always succeed).
	KindCompact
	// KindCrash kills the peer process, reopens it on its journal, and
	// attempts one best-effort recovery.
	KindCrash
	// KindHeal clears all outages, drives every pending mutation to
	// convergence, and runs the full invariant + oracle check. The
	// runner appends one final KindHeal to every program.
	KindHeal
	// KindJoinNode adds a fresh empty node to every slot's ring and
	// moves the lists it now owns to it, online. A no-op on non-DHT
	// clusters or once the slot reaches its node cap.
	KindJoinNode
	// KindLeaveNode drains the ring node selected by Server out of every
	// slot, online; the node keeps serving each list until its cutover
	// lands. A no-op when it would remove the last ring node.
	KindLeaveNode
	// KindStoreReopen kills and recovers every disk store in place: the
	// in-memory index and cache are discarded and rebuilt by replaying
	// the segment files (with a torn tail injected first when the config
	// arms TearSegments). A no-op on the in-memory engine.
	KindStoreReopen
	// KindCrashCompact crashes every disk store's compaction inside one
	// of its two crash windows (Server%2 selects: temp written but not
	// renamed, or renamed but stale segments kept) and then recovers by
	// reopening. A no-op on the in-memory engine.
	KindCrashCompact
)

var kindNames = map[Kind]string{
	KindIndex: "KindIndex", KindDelete: "KindDelete",
	KindBatchAdd: "KindBatchAdd", KindBatchFlush: "KindBatchFlush",
	KindSearch: "KindSearch", KindGroupAdd: "KindGroupAdd",
	KindGroupRemove: "KindGroupRemove", KindServerDown: "KindServerDown",
	KindServerUp: "KindServerUp", KindReshare: "KindReshare",
	KindCompact: "KindCompact", KindCrash: "KindCrash", KindHeal: "KindHeal",
	KindJoinNode: "KindJoinNode", KindLeaveNode: "KindLeaveNode",
	KindStoreReopen: "KindStoreReopen", KindCrashCompact: "KindCrashCompact",
}

// String returns the kind's Go constant name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one self-contained simulation operation. All parameters are
// fixed at generation time (content, group, query terms), so removing
// ops from a program never changes what the remaining ops do — shrunk
// traces replay byte-identically.
type Op struct {
	Kind    Kind
	Doc     uint32   // KindIndex, KindDelete, KindBatchAdd
	Content string   // KindIndex, KindBatchAdd
	Group   uint32   // KindIndex, KindBatchAdd, KindGroupAdd, KindGroupRemove
	User    int      // KindSearch, KindGroupAdd, KindGroupRemove (searcher index)
	Server  int      // KindServerDown, KindServerUp, KindLeaveNode
	Query   []string // KindSearch
}

// Program is a sequence of simulation operations.
type Program []Op

// GoString renders the program as a pasteable Go literal, so a shrunk
// failing trace can be committed verbatim as a regression test.
func (p Program) GoString() string {
	var b strings.Builder
	b.WriteString("sim.Program{\n")
	for _, op := range p {
		b.WriteString("\t" + op.goLiteral() + ",\n")
	}
	b.WriteString("}")
	return b.String()
}

func (op Op) goLiteral() string {
	parts := []string{fmt.Sprintf("Kind: sim.%s", op.Kind)}
	if op.Doc != 0 {
		parts = append(parts, fmt.Sprintf("Doc: %d", op.Doc))
	}
	if op.Content != "" {
		parts = append(parts, fmt.Sprintf("Content: %q", op.Content))
	}
	if op.Group != 0 {
		parts = append(parts, fmt.Sprintf("Group: %d", op.Group))
	}
	if op.User != 0 {
		parts = append(parts, fmt.Sprintf("User: %d", op.User))
	}
	if op.Server != 0 {
		parts = append(parts, fmt.Sprintf("Server: %d", op.Server))
	}
	if len(op.Query) != 0 {
		quoted := make([]string, len(op.Query))
		for i, q := range op.Query {
			quoted[i] = fmt.Sprintf("%q", q)
		}
		parts = append(parts, fmt.Sprintf("Query: []string{%s}", strings.Join(quoted, ", ")))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// docSpace is the document-ID range programs draw from: small enough
// that updates, deletes, and re-inserts of the same document happen
// constantly.
const docSpace = 12

// Generate derives a random operation program from cfg.Seed. The same
// configuration always yields the same program; faults are drawn from
// an independent stream during Run, so (cfg, Generate(cfg)) is a fully
// reproducible simulation.
func Generate(cfg Config) Program {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1e3779b97f4a7c15))
	prog := make(Program, 0, cfg.Steps)

	content := func() string {
		n := 2 + rng.Intn(5)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = cfg.Vocabulary[rng.Intn(len(cfg.Vocabulary))]
		}
		return strings.Join(terms, " ")
	}
	// DHT clusters draw from an extended table that folds in the churn
	// fault class; plain clusters keep the original table so their
	// programs stay byte-identical seed-for-seed.
	churn := cfg.DHTNodes > 1
	for len(prog) < cfg.Steps {
		if len(prog) > 0 && len(prog)%9 == 8 {
			// Periodic quiescence: converge and run the full check so
			// divergence is pinned near the step that caused it.
			prog = append(prog, Op{Kind: KindHeal})
			continue
		}
		var op Op
		// Disk-engine configs fold in the storage fault class with a
		// pre-roll, leaving in-memory programs byte-identical
		// seed-for-seed (the branch draws from the rng only for disk).
		if cfg.StoreEngine == "disk" {
			switch roll := rng.Intn(100); {
			case roll < 6:
				prog = append(prog, Op{Kind: KindStoreReopen})
				continue
			case roll < 10:
				prog = append(prog, Op{Kind: KindCrashCompact, Server: rng.Intn(8)})
				continue
			}
		}
		if churn {
			switch roll := rng.Intn(100); {
			case roll < 24:
				op = Op{Kind: KindIndex, Doc: 1 + uint32(rng.Intn(docSpace)),
					Content: content(), Group: 1 + uint32(rng.Intn(cfg.Groups))}
			case roll < 31:
				op = Op{Kind: KindDelete, Doc: 1 + uint32(rng.Intn(docSpace))}
			case roll < 39:
				op = Op{Kind: KindBatchAdd, Doc: 1 + uint32(rng.Intn(docSpace)),
					Content: content(), Group: 1 + uint32(rng.Intn(cfg.Groups))}
			case roll < 44:
				op = Op{Kind: KindBatchFlush}
			case roll < 57:
				qn := 1 + rng.Intn(3)
				q := make([]string, qn)
				for i := range q {
					q[i] = cfg.Vocabulary[rng.Intn(len(cfg.Vocabulary))]
				}
				op = Op{Kind: KindSearch, User: rng.Intn(cfg.Users), Query: q}
			case roll < 62:
				op = Op{Kind: KindGroupAdd, User: rng.Intn(cfg.Users),
					Group: 1 + uint32(rng.Intn(cfg.Groups))}
			case roll < 66:
				op = Op{Kind: KindGroupRemove, User: rng.Intn(cfg.Users),
					Group: 1 + uint32(rng.Intn(cfg.Groups))}
			case roll < 70:
				op = Op{Kind: KindServerDown, Server: rng.Intn(cfg.N)}
			case roll < 74:
				op = Op{Kind: KindServerUp, Server: rng.Intn(cfg.N)}
			case roll < 77:
				op = Op{Kind: KindReshare}
			case roll < 80:
				op = Op{Kind: KindCompact}
			case roll < 84:
				op = Op{Kind: KindCrash}
			case roll < 88:
				op = Op{Kind: KindJoinNode}
			case roll < 96:
				op = Op{Kind: KindLeaveNode, Server: rng.Intn(8)}
			default:
				op = Op{Kind: KindHeal}
			}
			prog = append(prog, op)
			continue
		}
		switch roll := rng.Intn(100); {
		case roll < 26:
			op = Op{Kind: KindIndex, Doc: 1 + uint32(rng.Intn(docSpace)),
				Content: content(), Group: 1 + uint32(rng.Intn(cfg.Groups))}
		case roll < 34:
			op = Op{Kind: KindDelete, Doc: 1 + uint32(rng.Intn(docSpace))}
		case roll < 43:
			op = Op{Kind: KindBatchAdd, Doc: 1 + uint32(rng.Intn(docSpace)),
				Content: content(), Group: 1 + uint32(rng.Intn(cfg.Groups))}
		case roll < 49:
			op = Op{Kind: KindBatchFlush}
		case roll < 63:
			qn := 1 + rng.Intn(3)
			q := make([]string, qn)
			for i := range q {
				q[i] = cfg.Vocabulary[rng.Intn(len(cfg.Vocabulary))]
			}
			op = Op{Kind: KindSearch, User: rng.Intn(cfg.Users), Query: q}
		case roll < 69:
			op = Op{Kind: KindGroupAdd, User: rng.Intn(cfg.Users),
				Group: 1 + uint32(rng.Intn(cfg.Groups))}
		case roll < 74:
			op = Op{Kind: KindGroupRemove, User: rng.Intn(cfg.Users),
				Group: 1 + uint32(rng.Intn(cfg.Groups))}
		case roll < 79:
			op = Op{Kind: KindServerDown, Server: rng.Intn(cfg.N)}
		case roll < 84:
			op = Op{Kind: KindServerUp, Server: rng.Intn(cfg.N)}
		case roll < 88:
			op = Op{Kind: KindReshare}
		case roll < 91:
			op = Op{Kind: KindCompact}
		case roll < 96:
			op = Op{Kind: KindCrash}
		default:
			op = Op{Kind: KindHeal}
		}
		prog = append(prog, op)
	}
	return prog
}
