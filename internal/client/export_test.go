package client

import (
	"context"

	"zerber/internal/auth"
	"zerber/internal/ranking"
)

// The two top-k plans, exported to the package's external tests so they
// can run either directly: the streamed plan on any one term, the
// whole-list plan on any query, whatever its term count would pick.

func (c *Client) SearchTopKStreamed(tok auth.Token, term string, k int) ([]ranking.ScoredDoc, Stats, error) {
	return c.searchTopKStream(context.Background(), tok, term, k)
}

func (c *Client) SearchTopKWhole(tok auth.Token, query []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	return c.searchTopKWhole(context.Background(), tok, dedup(query), k)
}
