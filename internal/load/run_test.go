package load

import (
	"strings"
	"testing"
	"time"

	"zerber"
	"zerber/internal/dht"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
)

// TestRunSmokeTiny drives the whole soak — real TCP cluster behind DHT
// slots, concurrent searchers on both retrieval paths, journaled
// mutating peers, group churn, node churn with live migration,
// proactive reshare — at a tiny scale over the binary wire on both
// storage engines. Run itself fails on the end-of-run element check; Check
// fails on any error or any idle kind.
func TestRunSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end soak; skipped in -short mode")
	}
	for _, engine := range []string{"sharded", "disk"} {
		t.Run("binary/"+engine, func(t *testing.T) {
			cfg := SmokeConfig()
			cfg.Duration = 800 * time.Millisecond
			cfg.Searchers = 2
			cfg.CorpusDocs = 100
			cfg.VocabSize = 1000
			cfg.Queries = 500
			cfg.LiveDocs = 40
			cfg.ChurnInterval = 50 * time.Millisecond
			cfg.ReshareInterval = 300 * time.Millisecond
			cfg.NodeChurnEvery = 200 * time.Millisecond
			cfg.StoreEngine = engine
			cfg.Logf = t.Logf

			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			t.Logf("\n%s", res)
			if err := res.Check(); err != nil {
				t.Error(err)
			}
			for _, kind := range []string{"search", "searchk", "index", "update", "delete", "churn", "reshare", "nodechurn"} {
				if _, ok := res[kind]; !ok {
					t.Errorf("op kind %q missing from result", kind)
				}
			}
		})
	}
}

// TestCheck pins the verdict rule on hand-built results.
func TestCheck(t *testing.T) {
	clean := func() Result {
		return Result{
			"search": {Ops: 900}, "searchk": {Ops: 800},
			"index": {Ops: 3}, "update": {Ops: 40}, "delete": {Ops: 12},
			"churn": {Ops: 16}, "reshare": {Ops: 2}, "nodechurn": {Ops: 4},
		}
	}
	for _, tc := range []struct {
		name string
		edit func(Result)
		want string // substring of the error; "" = passes
	}{
		{"clean", func(Result) {}, ""},
		{"one reshare error out of two", func(r Result) { r["reshare"] = Counts{Ops: 1, Errors: 1} }, "reshare: 1 errors"},
		{"one nodechurn error out of four", func(r Result) { r["nodechurn"] = Counts{Ops: 3, Errors: 1} }, "nodechurn: 1 errors"},
		{"one search error in a thousand", func(r Result) { r["search"] = Counts{Ops: 999, Errors: 1} }, "search: 1 errors"},
		{"churn error", func(r Result) { r["churn"] = Counts{Ops: 15, Errors: 1} }, "churn: 1 errors"},
		{"idle searchk", func(r Result) { r["searchk"] = Counts{} }, "searchk: no successful operation"},
		{"idle reshare", func(r Result) { r["reshare"] = Counts{} }, "reshare: no successful operation"},
		{"idle nodechurn", func(r Result) { r["nodechurn"] = Counts{} }, "nodechurn: no successful operation"},
		{"one mutation kind idle", func(r Result) { r["index"] = Counts{} }, ""},
		{"every mutation kind idle", func(r Result) {
			r["index"], r["update"], r["delete"] = Counts{}, Counts{}, Counts{}
		}, "index/update/delete: no successful operation"},
		{"node churn off", func(r Result) { delete(r, "nodechurn") }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := clean()
			tc.edit(r)
			err := r.Check()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Check = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("Check = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestCheckStateIsNotVacuous shows the end-of-run check failing on the
// two defects it exists for: an element a server holds that no peer
// committed, and an element a peer committed that a server lost.
func TestCheckStateIsNotVacuous(t *testing.T) {
	cluster, err := zerber.NewCluster(map[string]int{"alpha": 3, "beta": 2, "gamma": 1}, zerber.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster.AddUser("w", 1)
	p, err := cluster.NewPeer("site", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(cluster.IssueToken("w"), peer.Document{ID: 1, Content: "alpha beta gamma", Group: 1}); err != nil {
		t.Fatal(err)
	}
	peers := []*mutator{{p: p}}
	if err := checkState(cluster, peers); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}

	st := cluster.Servers()[0].Store()
	var lid merging.ListID
	for l := range st.ListLengths() {
		lid = l
	}
	orphan := posting.EncryptedShare{GlobalID: 1 << 40, Group: 1, Y: field.New(9)}
	st.Upsert(lid, []posting.EncryptedShare{orphan})
	if err := checkState(cluster, peers); err == nil || !strings.Contains(err.Error(), "slot x=1 stores 4 elements, peers committed 3") {
		t.Errorf("orphan element: checkState = %v", err)
	}
	st.DeleteIf(lid, orphan.GlobalID, nil)
	st.DeleteIf(lid, st.Scan(lid, nil)[0].GlobalID, nil)
	if err := checkState(cluster, peers); err == nil || !strings.Contains(err.Error(), "slot x=1 stores 2 elements, peers committed 3") {
		t.Errorf("lost element: checkState = %v", err)
	}
}

// TestCheckStateCatchesNodeLeftovers shows the end-of-run check failing
// on a DHT cluster whose slot serves the right elements but one of whose
// nodes still holds a copy of a list another node is authoritative for:
// a source not dropped after cutover.
func TestCheckStateCatchesNodeLeftovers(t *testing.T) {
	cluster, err := zerber.NewCluster(map[string]int{"alpha": 3, "beta": 2, "gamma": 1}, zerber.Options{Seed: 1, DHTNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	cluster.AddUser("w", 1)
	p, err := cluster.NewPeer("site", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(cluster.IssueToken("w"), peer.Document{ID: 1, Content: "alpha beta gamma", Group: 1}); err != nil {
		t.Fatal(err)
	}
	peers := []*mutator{{p: p}}
	if err := checkState(cluster, peers); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}

	sl := cluster.Servers()[0].Store().(*dht.Slot)
	var lid merging.ListID
	for l := range sl.ListLengths() {
		lid = l
	}
	owner, err := sl.RingOwnerOfList(lid)
	if err != nil {
		t.Fatal(err)
	}
	other := "n0"
	if owner == other {
		other = "n1"
	}
	node, _ := sl.Node(other)
	node.Upsert(lid, sl.Scan(lid, nil))
	if err := checkState(cluster, peers); err == nil || !strings.Contains(err.Error(), "slot x=1's nodes hold") {
		t.Errorf("leftover copy on %s: checkState = %v", other, err)
	}
}
