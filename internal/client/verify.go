package client

import (
	"errors"
	"fmt"
)

// ErrCorruptShare reports that two k-subsets of shares reconstructed
// different secrets for one element: at least one of the responding
// servers returned a bad share (malicious or corrupted storage).
var ErrCorruptShare = errors.New("client: share sets disagree; a server returned a corrupted share")

// EnableVerification switches the client to verified retrieval: every
// query contacts k+1 servers, and each element replicated on all of them is
// reconstructed from two distinct k-subsets, which must agree. This
// detects (not just tolerates) a server that tampers with stored shares
// — Shamir sharing alone hides information but does not authenticate it.
// The price is one extra server response per query. An element that
// only k of the k+1 responders hold is decrypted from those k without a
// cross-check (Stats.ElementsVerified counts the checked ones).
//
// Verification covers every whole-list fetch: Retrieve, Search and the
// whole-list plan of SearchTopK. A streamed top-k query is not verified:
// its block rounds ask k servers and cross-check nothing.
//
// It returns an error if the client does not know at least k+1 servers.
func (c *Client) EnableVerification() error {
	if len(c.servers) < c.k+1 {
		return fmt.Errorf("client: verification needs k+1=%d servers, have %d", c.k+1, len(c.servers))
	}
	c.verify = true
	return nil
}

// VerificationEnabled reports whether verified retrieval is active.
func (c *Client) VerificationEnabled() bool { return c.verify }
