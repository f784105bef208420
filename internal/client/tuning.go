package client

// Tuning configures the query engine's network half: how wide a query
// fans out and where a streamed top-k query starts. The zero value
// selects the defaults: ask as many servers as the query needs (k, or
// k+1 under verification) and hedge a straggler with one more server
// after a delay derived from the latencies this client has observed
// (see fanOutCall; the rounds a streamed top-k query pins to its first
// responders never hedge). Fanout=1 walks the
// servers one request at a time, a baseline that is strictly dominated
// in latency. Join, decrypt and ranking have no knobs: they run inline
// on the calling goroutine at a few nanoseconds per element, with the
// same results and Stats under every tuning.
type Tuning struct {
	// Fanout, when positive, fixes the number of requests a fan-out
	// puts in flight at once: n or more asks every server and keeps the
	// first to answer; 1 walks the server list one request at a time
	// like the original sequential client. A server is added only to
	// replace one that failed; an explicit width never hedges. 0 selects
	// the default above.
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
// fan-out that needs need answers from a cluster of n servers.
func (t Tuning) fanoutWidth(n, need int) int {
	if t.Fanout <= 0 {
		return need
	}
	return min(t.Fanout, n)
}
