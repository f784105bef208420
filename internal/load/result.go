// Package load is the soak: it drives a real multi-server Zerber
// cluster over a real wire with everything happening at once —
// concurrent Zipfian searches on both retrieval paths while journaled
// peers index, update, and delete documents and group churn, node
// join/leave churn with its online list migration, and periodic
// proactive resharing run in the background — with no fault injected,
// and reports whether every operation kind did some work with zero
// errors and left the servers holding exactly the peers' committed
// elements.
//
// It measures nothing. How fast the system is, and whether a change
// made it slower, is decided by benchmark/ alone (benchmark/README.md).
package load

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counts is one operation kind's tally: successful and failed
// operations.
type Counts struct {
	Ops, Errors int64
}

// Result is a soak run's outcome, per operation kind: "search",
// "searchk", "index", "update", "delete", "churn", "reshare", and —
// only when node churn was on — "nodechurn".
type Result map[string]Counts

// Check is the soak's whole verdict: nil when no kind recorded an error
// and every kind the run exists to exercise — exact search, top-k
// search, the three mutation kinds taken together, resharing, and node
// churn when it was on — succeeded at least once. There is no
// threshold and no minimum sample: one failed reshare out of two fails
// the run.
func (r Result) Check() error {
	var bad []string
	for kind, c := range r {
		if c.Errors > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d errors", kind, c.Errors))
		}
	}
	idle := func(name string, kinds ...string) {
		var ops int64
		for _, k := range kinds {
			ops += r[k].Ops
		}
		if ops == 0 {
			bad = append(bad, name+": no successful operation")
		}
	}
	idle("search", "search")
	idle("searchk", "searchk")
	idle("index/update/delete", "index", "update", "delete")
	idle("reshare", "reshare")
	if _, on := r["nodechurn"]; on {
		idle("nodechurn", "nodechurn")
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("load: soak failed: %s", strings.Join(bad, "; "))
}

// String renders one line per kind, sorted by kind.
func (r Result) String() string {
	kinds := make([]string, 0, len(r))
	for k := range r {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var sb strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&sb, "%-9s ops=%-7d errors=%d\n", k, r[k].Ops, r[k].Errors)
	}
	return sb.String()
}

// tally counts one operation kind from concurrent workers.
type tally struct {
	ops, errs atomic.Int64
}

func (t *tally) done(err error) {
	if err != nil {
		t.errs.Add(1)
		return
	}
	t.ops.Add(1)
}
