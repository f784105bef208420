// Package sim is Zerber's deterministic cluster simulator and model
// checker. It drives the full production stack — the peer mutation
// engine with its crash journal, the batched indexing pipeline, the
// query client, index servers over any storage engine, and optionally
// over DHT slot engines — through randomized operation programs while
// a fault-injecting transport (Transport, the adversarial sibling of
// transport.Latency) schedules outages, dropped and duplicated
// deliveries, arbitrarily delayed out-of-order redeliveries, lost
// responses, and peer kills mid-protocol.
//
// After every step the checker verifies the storage-engine contract and
// the servers' stats/state consistency; at every quiescent point it
// compares the cluster's answer sets term-by-term against Oracle — the
// paper's §2 reference system, a plain centralized inverted index with
// an ACL check — and asserts the global invariants the PR 1–4 machinery
// promises in combination: zero orphaned global IDs on any server,
// journal/local-state convergence across restarts, exact activity
// stats under redelivery, and the store leak budget.
//
// Everything is reproducible from a seed: Generate(cfg) derives the
// program, Run(cfg, program) replays it with a deterministic fault
// schedule, and a failing run shrinks (delta debugging over the
// program) to a minimal trace whose Go literal can be pasted into a
// regression test. See TESTING.md for the workflow.
package sim

import "strings"

// Config fixes one simulation: the cluster shape, the workload
// dimensions, and the fault plan. The zero value of every field has a
// sensible default (see withDefaults); Seed distinguishes runs.
type Config struct {
	// Seed drives program generation, the fault schedule, the peer's
	// share randomness, and the merging table — the whole run.
	Seed int64
	// N and K are the server count and Shamir threshold (default 3, 2).
	N, K int
	// StoreShards is the lock-stripe count of each server/node's
	// in-memory store (store.NewSharded): 1 the single-lock reference,
	// 0 the GOMAXPROCS-scaled default, any other value that many
	// stripes.
	StoreShards int
	// StoreEngine overrides the in-memory engine: "disk"
	// runs every server/node on a log-structured store.Disk with tiny
	// fsync and compaction thresholds (so the SegmentBytes fsync and
	// auto-compaction both fire inside a 32-step program), and adds
	// KindStoreReopen / KindCrashCompact to generated programs. Empty
	// keeps the StoreShards selection.
	StoreEngine string
	// DHTNodes, when > 1, gives every logical server a dht.Slot engine
	// of that many ring-partitioned physical node stores, so every store
	// call routes per posting list.
	DHTNodes int
	// Users is the number of searcher users u0..u{Users-1} (default 2).
	// The document owner is separate and belongs to every group.
	Users int
	// Groups is the number of collaboration groups (default 3).
	Groups int
	// Vocabulary is the corpus term set (default: a 10-term subset of
	// the Enron-flavored test vocabulary).
	Vocabulary []string
	// Steps is the generated program length (default 32).
	Steps int
	// Faults is the fault plan; the zero value disables fault
	// injection.
	Faults Faults
	// SkipDeleteReplay re-enables the known delete-stage-replay bug
	// shape through the peer's simulation hooks. Only the mutation-smoke
	// test sets it: the checker must catch the bug, proving it is not
	// vacuous.
	SkipDeleteReplay bool
	// TearSegments appends a torn frame to every disk store's log
	// before each replay (the kill-mid-append shape), via
	// store.DiskSimHooks. Lossless under correct torn-tail truncation;
	// only meaningful with StoreEngine "disk".
	TearSegments bool
	// SkipTornTruncate re-enables the torn-log bug shape through
	// store.DiskSimHooks: replay stops at a tear but leaves the file
	// untruncated, so later appends are silently lost at the next
	// reopen. Only the disk-torn smoke test sets it: the checker must
	// catch the loss, proving the disk fault class is not vacuous.
	SkipTornTruncate bool
	// LoseCutover re-enables the lost-cutover migration bug shape
	// through dht.SimHooks: the source drops its copy of a migrated list
	// but the routing flip is lost, leaving authority pointing at a node
	// without the data. Only the churn-smoke test sets it: the checker
	// must catch the unreachable data, proving the churn fault class is
	// not vacuous.
	LoseCutover bool
	// BinaryWire routes every peer/client call through the binary framed
	// protocol over real loopback TCP — transport.ServeBinary in front of
	// each logical server, transport.DialBinary back — with the fault
	// injector layered above the codec, so every simulated fault shape
	// also exercises frame encode/decode and the pipelined connection.
	BinaryWire bool
}

// defaultVocabulary keeps programs dense: few enough terms that posting
// lists collide in merged lists, many enough that diffs are non-trivial.
var defaultVocabulary = []string{
	"martha", "imclone", "layoff", "merger", "budget",
	"meeting", "status", "review", "draft", "suitor",
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 3
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Users == 0 {
		c.Users = 2
	}
	if c.Groups == 0 {
		c.Groups = 3
	}
	if len(c.Vocabulary) == 0 {
		c.Vocabulary = defaultVocabulary
	}
	if c.Steps == 0 {
		c.Steps = 32
	}
	return c
}

// engineName names the configured storage engine for reports.
func (c Config) engineName() string {
	var b strings.Builder
	switch {
	case c.StoreEngine == "disk":
		b.WriteString("disk")
	case c.StoreShards == 1:
		b.WriteString("sharded-1")
	default:
		b.WriteString("sharded")
	}
	if c.DHTNodes > 1 {
		b.WriteString("+dht")
	}
	if c.BinaryWire {
		b.WriteString("+bin")
	}
	return b.String()
}
