package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"zerber/internal/merging"
)

// TestRunFaultFree runs a program with fault injection disabled: every
// mutation succeeds first try, so this pins the runner's bookkeeping
// (oracle lockstep, batch handling, heals, journal restore) without the
// fault machinery.
func TestRunFaultFree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Seed: seed, StoreShards: 1}
		if err := Run(cfg, Generate(cfg)); err != nil {
			t.Fatalf("seed %d fault-free: %v", seed, err)
		}
	}
}

// TestRunDeterministic pins seed-reproducibility: the same (cfg,
// program) pair must produce the same outcome, including the exact
// error text on failure — that is what makes a reported seed + trace a
// deterministic regression test.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Faults: DefaultFaults()}
	prog := Generate(cfg)
	asText := func(err error) string {
		if err == nil {
			return "<pass>"
		}
		return err.Error()
	}
	first := asText(Run(cfg, prog))
	for i := 0; i < 2; i++ {
		if got := asText(Run(cfg, prog)); got != first {
			t.Fatalf("run %d diverged:\n first: %s\n again: %s", i+2, first, got)
		}
	}
}

// TestRunLeavesTheSameTrace is TestRunDeterministic down to the stored
// elements: two runs of one seed under the default fault mix leave
// every server with the same activity counters and every list holding
// the same global IDs in the same stored order. The IDs follow the
// peer's randomness, stored order follows arrival order (the shuffle),
// and the counters follow which deliveries the fault stream dropped,
// duplicated or replayed, so they agree only if the peer made the same
// calls in the same order, which is what sending a stage to one server
// at a time under Config.Sim (see peer.SimHooks) is for. Share values
// are left out: a resharing round draws its deltas from crypto/rand.
// The trace ends with the Stats.TA of every top-k search the checker
// made: a replay takes the same plan for each, in the same rounds.
func TestRunLeavesTheSameTrace(t *testing.T) {
	trace := func(seed int64) string {
		cfg := Config{Seed: seed, Faults: DefaultFaults()}.withDefaults()
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		for i, op := range Generate(cfg) {
			r.step = i
			if err := r.exec(op); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		var sb strings.Builder
		for i, srv := range r.servers {
			fmt.Fprintf(&sb, "server %d %+v\n", i, srv.StatsSnapshot())
			lengths := srv.Store().ListLengths()
			lids := make([]int, 0, len(lengths))
			for lid := range lengths {
				lids = append(lids, int(lid))
			}
			sort.Ints(lids)
			for _, lid := range lids {
				fmt.Fprintf(&sb, " list %d", lid)
				for _, sh := range srv.Store().Scan(merging.ListID(lid), nil) {
					fmt.Fprintf(&sb, " %d/%d", sh.GlobalID, sh.Group)
				}
				sb.WriteByte('\n')
			}
		}
		fmt.Fprintf(&sb, "top-k %+v\n", r.topkRuns)
		return sb.String()
	}
	for seed := int64(1); seed <= 20; seed++ {
		first := trace(seed)
		if !strings.Contains(first, "list") || !strings.Contains(first, "Streamed:true") {
			t.Fatalf("seed %d left the servers empty: the comparison would be vacuous", seed)
		}
		if again := trace(seed); again != first {
			t.Fatalf("seed %d: two runs left different traces:\n%s\n--- again ---\n%s", seed, first, again)
		}
	}
}

// TestTopKPlansBothRun keeps the top-k oracle check from going vacuous
// on one side of the planner: over the smoke seeds the checker's top-k
// client (Fanout 1, BlockSize 4) must have answered from whole lists,
// from block rounds, and from more than one block round, each answer
// having been compared with Oracle.ExpectedTopK where it was recorded
// (fullCheck).
func TestTopKPlansBothRun(t *testing.T) {
	var whole, streamed, deep int
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{Seed: seed, Faults: DefaultFaults()}.withDefaults()
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.close)
		for i, op := range append(Generate(cfg), Op{Kind: KindHeal}) {
			r.step = i
			if err := r.exec(op); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		for _, ta := range r.topkRuns {
			switch {
			case !ta.Streamed:
				whole++
			case ta.Depth >= 2:
				deep++
				fallthrough
			default:
				streamed++
			}
		}
	}
	t.Logf("top-k searches checked against the oracle: %d whole-list, %d streamed, %d of those in two rounds or more", whole, streamed, deep)
	if whole == 0 || streamed == 0 || deep == 0 {
		t.Errorf("a plan never ran: %d whole-list, %d streamed, %d multi-round", whole, streamed, deep)
	}
}

// TestGenerateDeterministic pins program generation to the seed.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42}
	a, b := Generate(cfg), Generate(cfg)
	if a.GoString() != b.GoString() {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
	cfg2 := Config{Seed: 43}
	if Generate(cfg2).GoString() == a.GoString() {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestOracleACL pins the oracle's reference semantics.
func TestOracleACL(t *testing.T) {
	o := NewOracle()
	o.AddUser("alice", 1)
	o.AddUser("bob", 2)
	o.Index(1, "martha imclone", 1)
	o.Index(2, "martha budget", 2)

	if got := o.Expected("alice", []string{"martha"}); len(got) != 1 || !got[1] {
		t.Fatalf("alice sees %v, want only doc 1", got)
	}
	if got := o.Expected("bob", []string{"martha", "budget"}); len(got) != 1 || !got[2] {
		t.Fatalf("bob sees %v, want only doc 2", got)
	}
	o.AddUser("alice", 2)
	if got := o.Expected("alice", []string{"martha"}); len(got) != 2 {
		t.Fatalf("alice after join sees %v, want both", got)
	}
	o.RemoveUser("alice", 2)
	o.Remove(1)
	if got := o.Expected("alice", []string{"martha", "imclone"}); len(got) != 0 {
		t.Fatalf("alice after revoke+delete sees %v, want none", got)
	}
	if o.Live(1) || !o.Live(2) || o.NumDocs() != 1 {
		t.Fatal("liveness tracking broken")
	}
}

// TestShrinkMinimizes checks the delta-debugging loop against Run
// itself: a program failing under the re-enabled delete-replay bug
// must shrink to a strict, still-failing subsequence.
func TestShrinkMinimizes(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking re-runs many programs")
	}
	cfg := Config{
		Seed:             5,
		StoreShards:      1,
		Faults:           Faults{KillPeer: 0.3},
		SkipDeleteReplay: true,
	}
	found := FindFailure(cfg, 10)
	if found == nil {
		t.Fatal("no failure found to shrink (bug hook ineffective?)")
	}
	if len(found.Shrunk) > len(found.Program) {
		t.Fatalf("shrunk trace longer than original: %d > %d", len(found.Shrunk), len(found.Program))
	}
	if err := Run(found.Cfg, found.Shrunk); err == nil {
		t.Fatalf("shrunk trace no longer fails:\n%s", found.Report())
	}
	if !strings.Contains(found.Report(), "sim.Program{") {
		t.Fatalf("report lacks a pasteable trace:\n%s", found.Report())
	}
	t.Logf("shrunk %d -> %d ops", len(found.Program), len(found.Shrunk))
}

// TestProgramGoStringRoundTrip spot-checks the trace formatting.
func TestProgramGoStringRoundTrip(t *testing.T) {
	p := Program{
		{Kind: KindIndex, Doc: 3, Content: "martha budget", Group: 2},
		{Kind: KindSearch, User: 1, Query: []string{"martha"}},
		{Kind: KindHeal},
	}
	s := p.GoString()
	for _, want := range []string{
		`{Kind: sim.KindIndex, Doc: 3, Content: "martha budget", Group: 2}`,
		`{Kind: sim.KindSearch, User: 1, Query: []string{"martha"}}`,
		`{Kind: sim.KindHeal}`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("GoString missing %q in:\n%s", want, s)
		}
	}
}
