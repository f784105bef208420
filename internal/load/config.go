package load

import (
	"fmt"
	"time"
)

// Config parameterizes one soak run. The two committed tiers come from
// SmokeConfig (the CI gate) and FullConfig (nightly); tests shrink a
// tier further. Every derived quantity — corpus, query log, group
// memberships, per-worker samplers — is seeded from Seed, so two runs
// of the same config execute the same logical workload and differ only
// in timing.
type Config struct {
	// Seed drives corpus generation, the query log, memberships, and
	// all worker randomness.
	Seed int64
	// Duration is the length of the mixed-traffic phase; preload comes
	// before it.
	Duration time.Duration

	// Servers and K shape the cluster (n index servers, k-of-n
	// sharing).
	Servers, K int

	// StoreEngine names the servers' storage engine: "" or "sharded"
	// (in memory) or "disk" (the log-structured on-disk engine, its logs
	// in a temporary directory).
	StoreEngine string

	// DHTNodes, when above 1, backs each share slot's server with that
	// many physical node stores behind a consistent-hashing dht.Slot
	// (zerber's "Membership & rebalancing"), so traffic pays real
	// routing costs.
	DHTNodes int

	// NodeChurnEvery, when positive, paces node join/leave churn: a
	// background worker alternately joins a fresh node to every slot and
	// drains it back out while all other traffic keeps flowing, so
	// every kind of operation runs across live migrations. Requires
	// DHTNodes > 1.
	NodeChurnEvery time.Duration

	// Peers is the number of document-owner sites, each driven by one
	// mutator worker; Searchers is the number of concurrent query
	// workers.
	Peers, Searchers int

	// Corpus shape (corpus.SyntheticODP).
	CorpusDocs, VocabSize, Groups, MeanDocLen int

	// Queries sizes the synthetic query log the searchers sample from.
	Queries int

	// LiveDocs is the steady-state number of indexed documents across
	// all peers: preload indexes this many, and mutators hold the count
	// near it while cycling index/update/delete traffic.
	LiveDocs int

	// ChurnInterval paces group-membership churn; ReshareInterval paces
	// proactive resharing rounds.
	ChurnInterval, ReshareInterval time.Duration

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// SmokeConfig is the CI tier: a 3-server cluster under a few seconds of
// mixed traffic — long enough for two resharing rounds and four node
// churn steps, small enough for the per-commit pipeline.
func SmokeConfig() Config {
	return Config{
		Seed:            1,
		Duration:        5 * time.Second,
		Servers:         3,
		K:               2,
		Peers:           2,
		Searchers:       4,
		CorpusDocs:      300,
		VocabSize:       2000,
		Groups:          8,
		MeanDocLen:      30,
		Queries:         2000,
		LiveDocs:        120,
		ChurnInterval:   200 * time.Millisecond,
		ReshareInterval: 2 * time.Second,
		DHTNodes:        2,
		NodeChurnEvery:  1 * time.Second,
	}
}

// FullConfig is the nightly tier: a 5-server k=3 cluster, a larger
// corpus, and 16 concurrent searchers for half a minute.
func FullConfig() Config {
	return Config{
		Seed:            1,
		Duration:        30 * time.Second,
		Servers:         5,
		K:               3,
		Peers:           4,
		Searchers:       16,
		CorpusDocs:      2000,
		VocabSize:       10000,
		Groups:          16,
		MeanDocLen:      50,
		Queries:         20000,
		LiveDocs:        600,
		ChurnInterval:   100 * time.Millisecond,
		ReshareInterval: 5 * time.Second,
		DHTNodes:        3,
		NodeChurnEvery:  2 * time.Second,
	}
}

// ConfigFor returns the named committed tier.
func ConfigFor(scale string) (Config, error) {
	switch scale {
	case "smoke":
		return SmokeConfig(), nil
	case "full":
		return FullConfig(), nil
	default:
		return Config{}, fmt.Errorf("load: unknown scale %q (want smoke or full)", scale)
	}
}

func (c *Config) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("load: Duration must be positive")
	case c.Servers < 1 || c.K < 1 || c.K > c.Servers:
		return fmt.Errorf("load: need 1 <= K <= Servers, got K=%d Servers=%d", c.K, c.Servers)
	case c.Peers < 1 || c.Searchers < 1:
		return fmt.Errorf("load: need at least one peer and one searcher")
	case c.CorpusDocs < c.LiveDocs || c.LiveDocs < c.Peers:
		return fmt.Errorf("load: need Peers <= LiveDocs <= CorpusDocs, got Peers=%d LiveDocs=%d CorpusDocs=%d",
			c.Peers, c.LiveDocs, c.CorpusDocs)
	case c.Groups < 1 || c.Queries < 1:
		return fmt.Errorf("load: Groups and Queries must be positive")
	case c.ChurnInterval <= 0 || c.ReshareInterval <= 0:
		return fmt.Errorf("load: ChurnInterval and ReshareInterval must be positive")
	case c.DHTNodes < 0 || c.NodeChurnEvery < 0:
		return fmt.Errorf("load: DHTNodes and NodeChurnEvery must be non-negative")
	case c.NodeChurnEvery > 0 && c.DHTNodes < 2:
		return fmt.Errorf("load: node churn needs DHTNodes > 1, got %d", c.DHTNodes)
	case c.StoreEngine != "" && c.StoreEngine != "sharded" && c.StoreEngine != "disk":
		return fmt.Errorf("load: unknown store engine %q (want sharded or disk)", c.StoreEngine)
	}
	return nil
}
