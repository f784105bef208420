// Command zerber-loadgen soaks a real multi-server Zerber cluster: every
// kind of traffic at once, over the binary wire on loopback TCP, with no
// fault injected.
//
//	zerber-loadgen [-scale smoke|full] [-store-engine sharded|disk]
//	               [-dht-nodes N] [-seed N] [-duration D] [-q]
//
// One run (internal/load) has concurrent users issuing Zipfian searches
// on both retrieval paths while journaled peers index, update and
// delete documents, and group churn, node join/leave churn with its
// online list migration, and proactive resharing run in the background.
// It prints one line per operation kind — successful operations and
// errors — and exits 1 if any kind recorded an error, if a kind the run
// exists to exercise did no work, or if the servers do not end up
// holding exactly the peers' committed elements.
//
// It measures nothing: speed is benchmark/'s job (benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"zerber/internal/load"
)

func main() {
	var (
		scale    = flag.String("scale", "smoke", "scale tier: smoke (CI) or full (nightly)")
		seed     = flag.Int64("seed", 0, "workload seed override (0 = tier default)")
		duration = flag.Duration("duration", 0, "mixed-traffic duration override (0 = tier default)")
		engine   = flag.String("store-engine", "sharded", "storage engine the servers run on: sharded (in memory) or disk")
		dhtNodes = flag.Int("dht-nodes", -1, "physical nodes per share slot (-1 = tier default; 0 or 1 = monolithic, disables node churn)")
		quiet    = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := load.ConfigFor(*scale)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *duration != 0 {
		cfg.Duration = *duration
	}
	cfg.StoreEngine = *engine
	if *dhtNodes >= 0 {
		cfg.DHTNodes = *dhtNodes
		if cfg.DHTNodes < 2 {
			cfg.NodeChurnEvery = 0
		}
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	start := time.Now()
	res, err := load.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res)
	if err := res.Check(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "zerber-loadgen: %s soak on %s clean in %v\n",
		*scale, *engine, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zerber-loadgen: %v\n", err)
	os.Exit(1)
}
