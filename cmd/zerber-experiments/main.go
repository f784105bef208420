// Command zerber-experiments regenerates the tables and figures of the
// paper's evaluation (§7) on the synthetic corpora.
//
// Usage:
//
//	zerber-experiments                 # run everything at the scaled size
//	zerber-experiments -exp table1     # one experiment
//	zerber-experiments -docs 50000 -vocab 200000 -queries 500000
//	zerber-experiments -full           # paper-sized corpora (slow, much RAM)
//
// Each run prints paper-style rows. Their mapping to the paper's
// numbers is not yet recorded (ROADMAP item 10).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zerber/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.IDs(), ", "))
		seed    = flag.Int64("seed", 42, "corpus generator seed")
		docs    = flag.Int("docs", 0, "ODP-like corpus size (0 = scaled default 20000)")
		vocab   = flag.Int("vocab", 0, "vocabulary size (0 = scaled default 60000)")
		queries = flag.Int("queries", 0, "query log size (0 = scaled default 100000)")
		full    = flag.Bool("full", false, "use the paper's full-scale sizes (237k docs, 987.7k terms, 7M queries)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed: *seed, NumDocs: *docs, VocabSize: *vocab,
		NumQueries: *queries, FullScale: *full,
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating corpora (seed=%d)...\n", *seed)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "corpora ready in %v: %d docs, %d realized terms, %d queries\n\n",
		time.Since(start).Round(time.Millisecond), len(env.ODP.Docs), len(env.Ranked), len(env.Log.Queries))

	if *exp == "all" {
		reports, err := env.All()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, r := range reports {
			r.Print(os.Stdout)
		}
		return
	}
	r, err := env.ByID(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	r.Print(os.Stdout)
}
