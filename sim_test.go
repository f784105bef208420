package zerber_test

import (
	"fmt"
	"testing"

	"zerber/internal/sim"
)

// simEngines is the storage/routing matrix every simulation tier runs
// across: the one-stripe single-lock reference ("memory"), the
// lock-striped Sharded store at its default width, Sharded behind DHT-routed server slots, and the log-structured
// Disk engine with tiny segment/cache/compaction thresholds plus torn
// tails injected before every replay (lossless under correct torn-tail
// truncation). Disk programs additionally draw KindStoreReopen and
// KindCrashCompact ops.
var simEngines = []struct {
	name     string
	shards   int
	dhtNodes int
	engine   string
}{
	{"memory", 1, 0, ""},
	{"sharded", 0, 0, ""},
	{"sharded+dht", 0, 2, ""},
	{"disk", 0, 0, "disk"},
}

// TestSimRandomized is the model checker's randomized tier: seeded
// operation programs over the full stack with every fault class enabled
// (outages, drops, duplicates, delayed redeliveries, lost responses,
// peer kills), checked after every step against the plain ACL-index
// oracle and the global invariants. Tier 1 runs 75 programs (25+ per
// store engine); `make test-full` (nightly) runs thousands. A failure
// prints the seed plus a shrunk, pasteable trace — see TESTING.md.
func TestSimRandomized(t *testing.T) {
	perEngine := tierCount(5, 25, 1200)
	for ei, eng := range simEngines {
		t.Run(eng.name, func(t *testing.T) {
			for i := 0; i < perEngine; i++ {
				cfg := sim.Config{
					Seed:         int64(ei*100000 + i + 1),
					StoreShards:  eng.shards,
					DHTNodes:     eng.dhtNodes,
					StoreEngine:  eng.engine,
					TearSegments: eng.engine == "disk",
					Faults:       sim.DefaultFaults(),
				}
				prog := sim.Generate(cfg)
				if err := sim.Run(cfg, prog); err != nil {
					failure := &sim.Failure{
						Cfg: cfg, Program: prog,
						Shrunk: sim.Shrink(cfg, prog), Err: err,
					}
					t.Fatalf("\n%s", failure.Report())
				}
			}
		})
	}
}

// TestSimMutationSmoke proves the checker is not vacuous: with the
// known PR 4 bug shape re-enabled (recovery skipping the delete-stage
// replay) behind the peer's simulation-only hook, the harness must
// catch the bug within the short tier's program budget, shrink it to a
// minimal trace, and reproduce it deterministically — while the same
// trace passes once the bug is switched off.
func TestSimMutationSmoke(t *testing.T) {
	budget := tierCount(6, 12, 60)
	cfg := sim.Config{
		Seed:        9000,
		StoreShards: 1,
		Faults: sim.Faults{
			Fail: 0.05, LostResponse: 0.05, Duplicate: 0.05,
			Redeliver: 0.05, KillPeer: 0.25,
		},
		SkipDeleteReplay: true,
	}
	found := sim.FindFailure(cfg, budget)
	if found == nil {
		t.Fatalf("checker is vacuous: the re-enabled delete-stage-replay bug survived %d programs", budget)
	}
	// The reported seed + shrunk trace must reproduce the failure
	// deterministically — the pasted-into-a-test contract.
	for attempt := 0; attempt < 2; attempt++ {
		if err := sim.Run(found.Cfg, found.Shrunk); err == nil {
			t.Fatalf("shrunk trace did not reproduce on attempt %d:\n%s", attempt+1, found.Report())
		}
	}
	// The failure is the bug's, not the harness's: the identical trace
	// under the identical fault schedule passes with the bug fixed.
	fixed := found.Cfg
	fixed.SkipDeleteReplay = false
	if err := sim.Run(fixed, found.Shrunk); err != nil {
		t.Fatalf("trace fails even without the bug — harness artifact, not detection: %v\n%s", err, found.Report())
	}
	t.Logf("caught and shrunk the re-enabled bug:\n%s", found.Report())
}

// churnEngines is the matrix the membership-churn tiers run across:
// every storage engine behind DHT slots, plus the binary framed wire.
var churnEngines = []struct {
	name   string
	shards int
	binary bool
	engine string
}{
	{"memory+dht", 1, false, ""},
	{"sharded+dht", 0, false, ""},
	{"sharded+dht+bin", 0, true, ""},
	{"disk+dht", 0, false, "disk"},
}

// TestSimChurn is the elastic-membership acceptance program: a node
// joins mid-run, the migration target is killed mid-copy, another node
// leaves, and documents keep being indexed, deleted, and searched
// throughout — oracle equality and zero orphaned gids must hold on
// every engine and over the binary wire. The fixed trace pins the
// scenario; the randomized tier explores beyond it.
func TestSimChurn(t *testing.T) {
	prog := sim.Program{
		{Kind: sim.KindIndex, Doc: 1, Content: "martha imclone layoff", Group: 1},
		{Kind: sim.KindIndex, Doc: 2, Content: "merger budget meeting", Group: 2},
		{Kind: sim.KindBatchAdd, Doc: 3, Content: "status review draft", Group: 1},
		{Kind: sim.KindBatchFlush},
		{Kind: sim.KindKillMigration, Server: 1},
		{Kind: sim.KindJoinNode},
		{Kind: sim.KindSearch, User: 0, Query: []string{"martha"}},
		{Kind: sim.KindIndex, Doc: 1, Content: "suitor draft", Group: 1},
		{Kind: sim.KindHeal},
		{Kind: sim.KindLeaveNode, Server: 0},
		{Kind: sim.KindSearch, User: 1, Query: []string{"merger"}},
		{Kind: sim.KindDelete, Doc: 2},
		{Kind: sim.KindJoinNode},
		{Kind: sim.KindIndex, Doc: 4, Content: "layoff merger suitor", Group: 3},
		{Kind: sim.KindSearch, User: 0, Query: []string{"layoff", "draft"}},
		{Kind: sim.KindLeaveNode, Server: 2},
		{Kind: sim.KindHeal},
	}
	seeds := tierCount(2, 5, 50)
	for _, eng := range churnEngines {
		t.Run(eng.name, func(t *testing.T) {
			for i := 0; i < seeds; i++ {
				cfg := sim.Config{
					Seed:         int64(800000 + i),
					StoreShards:  eng.shards,
					DHTNodes:     2,
					BinaryWire:   eng.binary,
					StoreEngine:  eng.engine,
					TearSegments: eng.engine == "disk",
					Faults:       sim.DefaultFaults(),
				}
				if err := sim.Run(cfg, prog); err != nil {
					t.Fatalf("seed %d: %v", cfg.Seed, err)
				}
			}
		})
	}
}

// TestSimChurnRandomized is the churn fault class's randomized tier:
// on DHT configurations Generate folds KindJoinNode / KindLeaveNode /
// KindKillMigration into the op mix and Faults.Migrate drops,
// duplicates, and reorders migration transfers, so topology changes
// race every other fault class.
func TestSimChurnRandomized(t *testing.T) {
	perEngine := tierCount(4, 15, 800)
	for ei, eng := range churnEngines {
		t.Run(eng.name, func(t *testing.T) {
			for i := 0; i < perEngine; i++ {
				cfg := sim.Config{
					Seed:         int64(850000 + ei*10000 + i),
					StoreShards:  eng.shards,
					DHTNodes:     3,
					BinaryWire:   eng.binary,
					StoreEngine:  eng.engine,
					TearSegments: eng.engine == "disk",
					Faults:       sim.DefaultFaults(),
				}
				prog := sim.Generate(cfg)
				if err := sim.Run(cfg, prog); err != nil {
					failure := &sim.Failure{
						Cfg: cfg, Program: prog,
						Shrunk: sim.Shrink(cfg, prog), Err: err,
					}
					t.Fatalf("\n%s", failure.Report())
				}
			}
		})
	}
}

// TestSimChurnSmoke proves the churn checker is not vacuous: with the
// lost-cutover bug shape re-enabled behind dht.SimHooks (the buggy
// ancestor of the two-phase handoff — source drops its copy, routing
// flip lost), the harness must catch unreachable or orphaned data
// within the short tier's budget, shrink it to a minimal trace, and
// reproduce it deterministically — while the same trace passes once the
// bug is switched off.
func TestSimChurnSmoke(t *testing.T) {
	budget := tierCount(6, 12, 60)
	cfg := sim.Config{
		Seed:        9500,
		StoreShards: 1,
		DHTNodes:    2,
		LoseCutover: true,
	}
	found := sim.FindFailure(cfg, budget)
	if found == nil {
		t.Fatalf("checker is vacuous: the re-enabled lost-cutover bug survived %d programs", budget)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if err := sim.Run(found.Cfg, found.Shrunk); err == nil {
			t.Fatalf("shrunk trace did not reproduce on attempt %d:\n%s", attempt+1, found.Report())
		}
	}
	fixed := found.Cfg
	fixed.LoseCutover = false
	if err := sim.Run(fixed, found.Shrunk); err != nil {
		t.Fatalf("trace fails even without the bug — harness artifact, not detection: %v\n%s", err, found.Report())
	}
	t.Logf("caught and shrunk the re-enabled lost-cutover bug:\n%s", found.Report())
}

// TestSimDiskTornSmoke proves the disk-engine fault class is not
// vacuous: with the torn-segment bug shape re-enabled behind
// store.DiskSimHooks (replay stops at the injected tear but leaves the
// file untruncated, so post-recovery appends land after the tear and
// are silently dropped at the next reopen), the harness must catch the
// lost data within the short tier's budget, shrink it to a minimal
// trace, and reproduce it deterministically — while the same trace
// passes once the bug is switched off and torn tails are truncated.
func TestSimDiskTornSmoke(t *testing.T) {
	budget := tierCount(6, 12, 60)
	cfg := sim.Config{
		Seed:             9700,
		StoreEngine:      "disk",
		TearSegments:     true,
		SkipTornTruncate: true,
		Faults: sim.Faults{
			Fail: 0.05, LostResponse: 0.05, Duplicate: 0.05,
			Redeliver: 0.05, KillPeer: 0.25,
		},
	}
	found := sim.FindFailure(cfg, budget)
	if found == nil {
		t.Fatalf("checker is vacuous: the re-enabled torn-segment bug survived %d programs", budget)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if err := sim.Run(found.Cfg, found.Shrunk); err == nil {
			t.Fatalf("shrunk trace did not reproduce on attempt %d:\n%s", attempt+1, found.Report())
		}
	}
	fixed := found.Cfg
	fixed.SkipTornTruncate = false
	if err := sim.Run(fixed, found.Shrunk); err != nil {
		t.Fatalf("trace fails even without the bug — harness artifact, not detection: %v\n%s", err, found.Report())
	}
	t.Logf("caught and shrunk the re-enabled torn-segment bug:\n%s", found.Report())
}

// TestSimBinaryWire runs the randomized fault-injected tier with every
// peer/client call routed through the binary framed protocol over real
// loopback TCP (Config.BinaryWire): ServeBinary in front of each
// server, a persistent pipelined DialBinary client behind the fault
// injector. Tier 1 runs 25+ programs; every fault class exercises frame
// encode/decode, and the oracle-equality and zero-orphan checks must
// hold exactly as over the in-process transport.
func TestSimBinaryWire(t *testing.T) {
	count := tierCount(5, 25, 400)
	for _, eng := range []struct {
		name   string
		shards int
		engine string
	}{{"memory", 1, ""}, {"sharded", 0, ""}, {"disk", 0, "disk"}} {
		t.Run(eng.name, func(t *testing.T) {
			for i := 0; i < count; i++ {
				cfg := sim.Config{
					Seed:         int64(700000 + i + 1),
					StoreShards:  eng.shards,
					StoreEngine:  eng.engine,
					TearSegments: eng.engine == "disk",
					BinaryWire:   true,
					Faults:       sim.DefaultFaults(),
				}
				prog := sim.Generate(cfg)
				if err := sim.Run(cfg, prog); err != nil {
					failure := &sim.Failure{
						Cfg: cfg, Program: prog,
						Shrunk: sim.Shrink(cfg, prog), Err: err,
					}
					t.Fatalf("\n%s", failure.Report())
				}
			}
		})
	}
}

// TestSimFaultFreeEquivalence runs one program per engine with fault
// injection disabled — the pure differential check that the engines and
// DHT routing agree with the oracle under a clean network.
func TestSimFaultFreeEquivalence(t *testing.T) {
	perEngine := tierCount(2, 5, 200)
	for ei, eng := range simEngines {
		t.Run(eng.name, func(t *testing.T) {
			for i := 0; i < perEngine; i++ {
				cfg := sim.Config{
					Seed:         int64(500000 + ei*1000 + i),
					StoreShards:  eng.shards,
					DHTNodes:     eng.dhtNodes,
					StoreEngine:  eng.engine,
					TearSegments: eng.engine == "disk",
				}
				if err := sim.Run(cfg, sim.Generate(cfg)); err != nil {
					t.Fatalf("seed %d: %v", cfg.Seed, err)
				}
			}
		})
	}
}

// Example seed replay, as TESTING.md documents it: paste the Config and
// Program printed by a failure report into sim.Run and the failure
// reproduces byte-for-byte. This example uses a passing trace to keep
// the suite green while pinning the replay API.
func ExampleRun() {
	err := sim.Run(sim.Config{Seed: 1, StoreShards: 1}, sim.Program{
		{Kind: sim.KindIndex, Doc: 3, Content: "martha imclone", Group: 1},
		{Kind: sim.KindSearch, User: 0, Query: []string{"martha"}},
		{Kind: sim.KindHeal},
	})
	fmt.Println(err)
	// Output: <nil>
}
