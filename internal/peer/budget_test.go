package peer

import (
	"fmt"
	"strings"
	"testing"
)

// TestMutateAllocationBudget keeps the allocation count of the peer's
// steady-state mutation where the write-path work left it: an update
// that replaces 3 of a document's 50 terms, against three in-process
// servers over the local transport (peer, server and store; no wire),
// measured at 226 allocations when the bound was set 10% above (387
// before that work). What it guards is per-token and per-element cost
// creeping back: a string per token in the term count alone adds 100.
func TestMutateAllocationBudget(t *testing.T) {
	const budget = 248
	names := make([]string, 56)
	for i := range names {
		names[i] = fmt.Sprintf("term%02d", i)
	}
	tc := newCluster(t, 3, names)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	p, err := New(Config{Name: "site", Servers: tc.apis, K: 2, Table: tc.table, Vocab: tc.voc})
	if err != nil {
		t.Fatal(err)
	}
	// Every term three times: 150 tokens. The two versions differ in
	// three terms.
	render := func(terms []string) string { return strings.Repeat(strings.Join(terms, " ")+" ", 3) }
	versions := []string{render(names[:50]), render(names[3:53])}
	doc := Document{ID: 1, Name: "doc", Content: versions[0], Group: 1}
	if err := p.IndexDocument(tok, doc); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		doc.Content = versions[i%2]
		if err := p.UpdateDocument(tok, doc); err != nil {
			t.Fatal(err)
		}
	})
	if got := tc.servers[0].Store().TotalElements(); got != 50 {
		t.Fatalf("server holds %d elements after the updates, want the document's 50", got)
	}
	t.Logf("%.0f allocations per 3-term update of a 50-term document", allocs)
	if allocs > budget {
		t.Errorf("%.0f allocations per update, budget %d", allocs, budget)
	}
}
