package client

// Tuning configures the query engine's network half: how wide a query
// fans out and where a streamed top-k query starts. The zero value
// selects the aggressive defaults: fan out to every known server at
// once. Fanout=1 walks the servers one request at a time — useful as a
// benchmark baseline, but strictly dominated in latency. Join, decrypt
// and ranking have no knobs: they run inline on the calling goroutine
// at a few nanoseconds per element, with the same results and Stats
// under every tuning.
type Tuning struct {
	// Fanout caps the number of concurrently in-flight GetPostingLists
	// requests. 0 (or >= n) queries all servers at once; 1 walks the
	// server list one request at a time like the original sequential
	// client. Lower widths trade latency for reduced server load. A
	// server is added only to replace one that failed.
	Fanout int
	// BlockSize is the first window of a streamed query: the number of
	// score-ordered posting elements SearchTopK fetches per list in the
	// first round of its streamed plan; later windows double. 0 selects
	// the default. Larger blocks cost bandwidth on short queries; smaller
	// blocks cost round trips on deep ones.
	BlockSize int
}

// defaultBlockSize is the first top-k block window when Tuning.BlockSize
// is 0.
const defaultBlockSize = 256

// blockSize resolves the top-k retrieval window.
func (t Tuning) blockSize() int {
	if t.BlockSize > 0 {
		return t.BlockSize
	}
	return defaultBlockSize
}

// fanoutWidth resolves the initial number of in-flight requests for a
// cluster of n servers.
func (t Tuning) fanoutWidth(n int) int {
	if t.Fanout <= 0 || t.Fanout > n {
		return n
	}
	return t.Fanout
}
