# Zerber build targets. CI (.github/workflows/ci.yml) runs exactly these.
# `make ci FUZZTIME=5s` runs every workflow step in the workflow's order
# except `benchjson`, the one step left out because it rewrites the
# committed BENCH_index.json.

GO ?= go
BENCHTIME ?= 0.5s
FUZZTIME ?= 10s
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: build test test-full race fuzz cover examples bench benchstore \
	benchjson soak soak-full lint fmt ci

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order to surface
# hidden order dependencies; the seed is printed on failure for replay.
# This is tier 1: unit + oracle tests plus the short simulation tier
# (see TESTING.md for the tier map).
test:
	$(GO) test -shuffle=on ./...

# The deep tier, run by the nightly workflow: thousands of randomized
# simulation programs, 20 oracle trials, and the long equivalence
# sweeps. ZERBER_TEST_FULL=1 is what the tiered tests key on.
test-full:
	ZERBER_TEST_FULL=1 $(GO) test -count=1 -timeout=30m -shuffle=on ./...

# The race tier runs -short so the detector's ~10-20x slowdown stays off
# the critical path; the full-size suite runs race-free in `test` and at
# full depth in the nightly `test-full`. The lines after it repeat the
# tests whose subject is a race, which one pass samples too thinly:
# recycled wire buffers against calls abandoned at random instants,
# callers writing their own frames on one shared connection while a
# third of them give up waiting for the write lock or the reply,
# pooled share slices released by the server once framed and by the
# caller once read while other calls draw them (the detector's build
# poisons what is released, and the poisoning is itself tested), the
# peer's concurrent per-stage fan-out (the barrier between the stages;
# recovery from every subset of acknowledgements), the top-k client's
# block rounds losing a responder or waiting for a slow one, with
# searches of both plans sharing the client, searches of every kind and
# size sharing the client's pooled query memory, and the search
# fan-out's hedge: its timer racing the answers and the cancelled hung
# call, with and without verification, an explicit width racing the
# caller's deadline, the latency estimate a hedged fan-out or a replaced
# failure must leave unsampled, and the preference order a hedge
# reorders under later searches. The next line repeats the
# inventory readers: resharing and the DHT slot read a store's list
# lengths and then each list in a second call, and a list can vanish
# between the two; with them, a slot's moves racing writers in every
# list, which only the cutover's drain under its exclusive hold keeps
# whole. The next repeats the disk engine's reads of its in-memory
# table racing writers whose churn fsyncs and compacts the log, ending
# in Close. The last repeats
# a cluster whose every server restarts on its old address, so the
# first search after the restart meets cached connections the servers
# closed and must redial.
race:
	$(GO) test -race -short -shuffle=on ./...
	$(GO) test -race -short -count=20 -run='^(TestBinaryCancelStress|TestBinaryConcurrentWritersShareConnection|TestBinaryLookupReleasedBudget|TestReleasedSharesPoisonedUnderRace)$$' ./internal/transport ./internal/posting
	$(GO) test -race -short -count=20 -run='^(TestDeleteStageWaitsForEveryInsertAck|TestRecoverFromAnyAckSubset)$$' ./internal/peer
	$(GO) test -race -short -count=20 -run='^(TestTopKSurvivesResponderChange|TestTopKKeepsSlowPinnedResponder|TestConcurrentTopK|TestPooledMemoryNeverAliases|TestFanoutCancelsSlowServer|TestVerifiedFanoutHedgesHungServer|TestHungFirstServerDemoted|TestDefaultFanoutAsksK|TestExplicitFanoutNeverHedges|TestHedgeDelayEstimator)$$' ./internal/client
	$(GO) test -race -short -count=10 -run='^(TestReshareDetectsMidGenerationMutation|TestReshareRollsBackMidApplyFailure|TestSlotChurnRace|TestMoveCompletesUnderSustainedWrites)$$' ./internal/proactive ./internal/dht
	$(GO) test -race -short -count=10 -run='^TestDiskReadsRaceAppendsAndCompaction$$' ./internal/store
	$(GO) test -race -short -count=20 -run='^TestWireDurableCluster$$' .

# Fuzz smoke: every fuzz target for FUZZTIME (default 10s) each. Go
# allows one -fuzz pattern per package invocation, hence one line per
# target. CI runs this with a shorter budget; use `make fuzz
# FUZZTIME=5m` for a real session.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz='^FuzzJournalDecode$$' -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentDecode$$' -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryApplyRequest$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryFrameDecode$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzTokenize$$' -fuzztime=$(FUZZTIME) ./internal/textproc
	$(GO) test -run='^$$' -fuzz='^FuzzSnippet$$' -fuzztime=$(FUZZTIME) ./internal/textproc

# Coverage: per-package summary plus a ratcheting floor. CI fails if
# total statement coverage drops below the number committed in
# COVERAGE.txt; raising code coverage lets the floor be raised in the
# same change. This runs the full tier-1 suite (with -shuffle, like
# `test`), so CI uses it AS the test step rather than paying for the
# suite twice.
cover:
	$(GO) test -count=1 -shuffle=on -coverprofile=cover.out ./...
	$(GO) run ./cmd/zerber-cover -profile cover.out -baseline COVERAGE.txt

# Examples: run every main package under examples/ (tier 1 only
# compiles them); any one that exits nonzero fails the target. Their
# output goes to /dev/null, their errors to the log.
examples:
	@set -e; for d in examples/*/; do \
		echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; \
	done

# One iteration per benchmark: a smoke run proving the benchmarks still
# compile and execute, not a measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Storage-engine comparison: BenchmarkServerMixed runs the same parallel
# mixed insert/lookup/delete workload against the one-stripe single-lock
# reference (shards=1), the sharded default, and the log-structured disk
# engine, so the sharding speedup and the cost of the disk engine's one
# lock and its log appends are reproducible from one command. Needs >1
# CPU to show parallel gain.
benchstore:
	$(GO) test -run='^$$' -bench='^BenchmarkServerMixed$$' -benchtime=0.5s -count=1 ./internal/server/

# Indexing-pipeline benchmarks, recorded as a committed JSON artifact so
# the write-path performance trajectory is tracked alongside the code:
# batched split/encrypt, the end-to-end
# 5,000-term document index (paper §5.1), and the steady-state mutation
# by layer (a 3-term update on a populated peer, the term count, the
# store's keyed upsert and delete on a resident index and on one hot
# list), and the read
# path's (the two top-k plans over loopback, which the planner's rule is
# read from; the summed-TF ranker per posting), and each engine's heap
# per stored element.
# Both steps write to temp files (gitignored) so a benchmark failure or
# parser failure aborts the recipe without touching the committed
# BENCH_index.json: a pipe would take only the last command's exit
# status, and redirecting the parser straight into BENCH_index.json
# would truncate it before the parser even runs.
benchjson:
	$(GO) test -run='^$$' \
		-bench='^(BenchmarkSplitBatch|BenchmarkEncryptBatch|BenchmarkIndexDocument5k|BenchmarkUpdateDocument|BenchmarkUpdateDocumentPopulated|BenchmarkTermCounts|BenchmarkTableUpsertDelete|BenchmarkTableUpsertDeleteHotList|BenchmarkJournaledFlush|BenchmarkUnjournaledFlush|BenchmarkFillRandDRBG|BenchmarkInvChain|BenchmarkEncodeGetPostingLists|BenchmarkApplyRequestRoundTrip|BenchmarkBinaryLookupRoundTrip|BenchmarkBinaryLookupRoundTripParallel|BenchmarkScanFiltered|BenchmarkMigrationThroughput|BenchmarkSearchTopK|BenchmarkTopKPlan|BenchmarkTopKByTF|BenchmarkRetrieveJoinRank|BenchmarkRetrieveJoinRankSkewed|BenchmarkServerMixed|BenchmarkHeapPerElement)$$' \
		-benchmem -benchtime=$(BENCHTIME) -count=1 \
		./internal/field/ ./internal/shamir/ ./internal/posting/ ./internal/peer/ ./internal/textproc/ \
		./internal/transport/ ./internal/dht/ ./internal/server/ ./internal/store/ ./internal/client/ \
		./internal/ranking/ . \
		> bench_index.out.tmp
	$(GO) run ./cmd/zerber-benchjson -commit $(COMMIT) -scale benchtime-$(BENCHTIME) \
		< bench_index.out.tmp > bench_index.json.tmp
	mv bench_index.json.tmp BENCH_index.json
	@rm -f bench_index.out.tmp
	@cat BENCH_index.json

# Soak (cmd/zerber-loadgen): a real multi-server cluster over the
# binary wire on loopback TCP with searchers on both retrieval paths,
# journaled peers mutating, group churn, node join/leave with live
# migration and proactive resharing all running at once, no fault
# injected, once per storage engine. It exits nonzero on any error, any
# idle operation kind, or servers that do not end up holding exactly
# the peers' committed elements. It measures nothing: speed is
# `go run ./benchmark` (benchmark/README.md).
soak:
	$(GO) run ./cmd/zerber-loadgen -scale smoke -store-engine sharded
	$(GO) run ./cmd/zerber-loadgen -scale smoke -store-engine disk

soak-full:
	$(GO) run ./cmd/zerber-loadgen -scale full

# The windows build keeps the product packages free of unix-only calls
# such as file mappings; benchmark/ is left out, as it reads its own CPU
# time through syscall.Getrusage.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	GOOS=windows $(GO) build $$($(GO) list ./... | grep -v /benchmark)
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs and runs it)"; \
	fi

fmt:
	gofmt -w .

ci: build lint cover examples race fuzz bench benchstore soak
