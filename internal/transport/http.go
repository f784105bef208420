package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// The HTTP wire protocol: one POST endpoint per API call (apply, lookup,
// lookupblocks) plus a GET for the public x-coordinate, with the auth
// token in the Authorization header. Payloads are JSON; the paper's
// near-random share values make compression pointless (§7.3), so none is
// applied. The retired /v1/insert and /v1/delete routes answer 404 like
// any other unknown path.
const (
	pathApply        = "/v1/apply"
	pathLookup       = "/v1/lookup"
	pathLookupBlocks = "/v1/lookupblocks"
	pathXCoord       = "/v1/xcoord"

	authHeader = "Authorization"
)

// applyRequest is the wire form of one Apply call: the op-ID header and
// both payload halves in one body, so a mutation stage is one round trip
// and the server sees the whole stage atomically.
type applyRequest struct {
	Op      OpID       `json:"op"`
	Inserts []InsertOp `json:"inserts,omitempty"`
	Deletes []DeleteOp `json:"deletes,omitempty"`
}

// NewHTTPHandler exposes an index server implementation over HTTP.
func NewHTTPHandler(api API) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pathXCoord, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, api.XCoord().Uint64())
	})
	mux.HandleFunc(pathApply, func(w http.ResponseWriter, r *http.Request) {
		var req applyRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := api.Apply(r.Context(), token(r), req.Op, req.Inserts, req.Deletes); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, "ok")
	})
	mux.HandleFunc(pathLookup, func(w http.ResponseWriter, r *http.Request) {
		var lists []merging.ListID
		if !readJSON(w, r, &lists) {
			return
		}
		out, err := api.GetPostingLists(r.Context(), token(r), lists)
		if err != nil {
			httpError(w, err)
			return
		}
		// JSON object keys must be strings; encode list IDs in decimal.
		enc := make(map[string][]posting.EncryptedShare, len(out))
		for lid, shares := range out {
			enc[strconv.FormatUint(uint64(lid), 10)] = shares
		}
		writeJSON(w, enc)
	})
	mux.HandleFunc(pathLookupBlocks, func(w http.ResponseWriter, r *http.Request) {
		var req blockRequest
		if !readJSONLimited(w, r, &req) {
			return
		}
		page, err := api.GetPostingBlocks(r.Context(), token(r), req.List, req.From, req.N)
		if err != nil {
			httpError(w, err)
			return
		}
		// Stream the page straight onto the wire: unlike the full lookup,
		// a page is written as it encodes, never buffered into an
		// intermediate map, so a wide block round holds no per-request
		// response copies.
		writeJSON(w, page)
	})
	return mux
}

// blockRequest is the wire form of one paged lookup.
type blockRequest struct {
	List merging.ListID `json:"list"`
	From int            `json:"from"`
	N    int            `json:"n"`
}

func token(r *http.Request) auth.Token { return auth.Token(r.Header.Get(authHeader)) }

// bodyLimit caps a request body's size. A body that exceeds it is
// rejected with 413 before any decoding — previously the reader silently
// truncated at the cap, which turned an oversized payload into a
// confusing "unexpected end of JSON input". It is a variable only so the
// error-path tests can exercise the limit without allocating 64 MiB
// (SetBodyLimit in export_test.go).
var bodyLimit int64 = 64 << 20

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, bodyLimit+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if int64(len(body)) > bodyLimit {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", bodyLimit),
			http.StatusRequestEntityTooLarge)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// readJSONLimited is readJSON built on http.MaxBytesReader: the limit is
// enforced by the connection machinery itself (which also closes the
// connection on overrun, so an oversized sender stops transmitting) and
// the body streams through the decoder instead of being slurped into one
// buffer first. The 413 status is identical to readJSON's, so both
// decode paths present the same error contract. New endpoints should use
// this; the legacy endpoints keep readJSON for byte-compatible errors.
func readJSONLimited(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, bodyLimit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", bodyLimit),
				http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

func httpError(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), int(statusCodeOf(err)))
}

// statusCodeOf maps an API error to its HTTP-equivalent status code:
// authentication and authorization failures are 401/403, anything else
// a 400 so the client sees the message. Both wire codecs use this
// mapping, so a caller observes identical error classes regardless of
// transport.
func statusCodeOf(err error) uint16 {
	switch {
	case containsAny(err.Error(), "invalid token", "expired token"):
		return http.StatusUnauthorized
	case containsAny(err.Error(), "not in the required group"):
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if bytes.Contains([]byte(s), []byte(sub)) {
			return true
		}
	}
	return false
}

// HTTPClient talks to a remote index server over the protocol above and
// implements API, so clients and owners are transport-agnostic.
type HTTPClient struct {
	base   string
	client *http.Client
	x      field.Element
}

// httpIdleConnsPerHost sizes the client's idle connection pool. The
// default http.Transport keeps only 2 idle connections per host, so a
// client fanning out wider than that (peers hit every server per
// mutation stage, searchers up to n per query) pays a TCP handshake on
// most calls under load; 64 comfortably covers the largest fan-out any
// committed configuration uses.
const httpIdleConnsPerHost = 64

// DialHTTP connects to an index server at baseURL (e.g.
// "http://ix1.example:8291") and fetches its public x-coordinate.
func DialHTTP(baseURL string, timeout time.Duration) (*HTTPClient, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 4 * httpIdleConnsPerHost
	tr.MaxIdleConnsPerHost = httpIdleConnsPerHost
	c := &HTTPClient{base: baseURL, client: &http.Client{Timeout: timeout, Transport: tr}}
	resp, err := c.client.Get(baseURL + pathXCoord)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	var x uint64
	if err := json.NewDecoder(resp.Body).Decode(&x); err != nil {
		return nil, fmt.Errorf("transport: reading x-coordinate: %w", err)
	}
	xe, err := field.Check(x)
	if err != nil {
		return nil, fmt.Errorf("transport: server x-coordinate: %w", err)
	}
	c.x = xe
	return c, nil
}

var _ API = (*HTTPClient)(nil)

// XCoord returns the server's x-coordinate fetched at dial time.
func (c *HTTPClient) XCoord() field.Element { return c.x }

// Apply posts one mutation stage.
func (c *HTTPClient) Apply(ctx context.Context, tok auth.Token, op OpID, inserts []InsertOp, deletes []DeleteOp) error {
	var ok string
	return c.post(ctx, pathApply, tok, applyRequest{Op: op, Inserts: inserts, Deletes: deletes}, &ok)
}

// GetPostingLists posts a lookup and decodes the share map.
func (c *HTTPClient) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	enc := make(map[string][]posting.EncryptedShare)
	if err := c.post(ctx, pathLookup, tok, lists, &enc); err != nil {
		return nil, err
	}
	out := make(map[merging.ListID][]posting.EncryptedShare, len(enc))
	for key, shares := range enc {
		lid, err := strconv.ParseUint(key, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("transport: bad list ID %q in response: %w", key, err)
		}
		out[merging.ListID(lid)] = shares
	}
	return out, nil
}

// GetPostingBlocks posts a paged lookup and decodes the page.
func (c *HTTPClient) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (BlockPage, error) {
	var page BlockPage
	if err := c.post(ctx, pathLookupBlocks, tok, blockRequest{List: list, From: from, N: n}, &page); err != nil {
		return BlockPage{}, err
	}
	return page, nil
}

func (c *HTTPClient) post(ctx context.Context, path string, tok auth.Token, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("transport: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(authHeader, string(tok))
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("transport: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("transport: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
