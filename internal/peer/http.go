package peer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"zerber/internal/auth"
)

// The peer-side HTTP protocol: the final step of Algorithm 2, where
// "Zerber clients request snippets from the peers hosting the top-K
// documents before presenting the search results to the user" (§5.4.2),
// plus full-document fetch for the user's final click-through.
const (
	pathSnippet  = "/v1/snippet"
	pathDocument = "/v1/document"

	authHeader = "Authorization"
)

// SnippetRequest asks for the result snippet of one hosted document.
type SnippetRequest struct {
	DocID uint32   `json:"doc_id"`
	Query []string `json:"query"`
	Width int      `json:"width"`
}

// SnippetResponse carries the snippet (and the document name for display).
type SnippetResponse struct {
	Snippet string `json:"snippet"`
	Name    string `json:"name"`
}

// DocumentRequest fetches a whole hosted document (the user's final
// click on a search result).
type DocumentRequest struct {
	DocID uint32 `json:"doc_id"`
}

// DocumentResponse carries the document.
type DocumentResponse struct {
	Name    string `json:"name"`
	Content string `json:"content"`
}

// NewHTTPHandler exposes the peer's snippet and document endpoints. The
// verifier checks tokens from the enterprise authentication service;
// groups supplies the caller's memberships for the per-document access
// check (the peer trusts its own group view, like every index server).
func NewHTTPHandler(p *Peer, verifier *auth.Service, groups *auth.GroupTable) http.Handler {
	authed := func(w http.ResponseWriter, r *http.Request) (auth.GroupSet, bool) {
		user, err := verifier.Verify(auth.Token(r.Header.Get(authHeader)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return auth.GroupSet{}, false
		}
		return groups.GroupSetOf(user), true
	}
	mux := http.NewServeMux()
	mux.HandleFunc(pathSnippet, func(w http.ResponseWriter, r *http.Request) {
		groupSet, ok := authed(w, r)
		if !ok {
			return
		}
		var req SnippetRequest
		if !readJSON(w, r, &req) {
			return
		}
		snippet, err := p.Snippet(req.DocID, req.Query, req.Width, groupSet)
		if err != nil {
			peerHTTPError(w, err)
			return
		}
		doc, _ := p.Document(req.DocID) // Snippet already validated existence
		writeJSON(w, SnippetResponse{Snippet: snippet, Name: doc.Name})
	})
	mux.HandleFunc(pathDocument, func(w http.ResponseWriter, r *http.Request) {
		groupSet, ok := authed(w, r)
		if !ok {
			return
		}
		var req DocumentRequest
		if !readJSON(w, r, &req) {
			return
		}
		doc, found := p.Document(req.DocID)
		if !found {
			http.Error(w, fmt.Sprintf("unknown document %d", req.DocID), http.StatusNotFound)
			return
		}
		if !groupSet.Has(doc.Group) {
			http.Error(w, "access denied", http.StatusForbidden)
			return
		}
		writeJSON(w, DocumentResponse{Name: doc.Name, Content: doc.Content})
	})
	return mux
}

func peerHTTPError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownDoc):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrAccessDenied):
		http.Error(w, err.Error(), http.StatusForbidden)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // headers already sent on failure
}

// SnippetClient fetches snippets and documents from a remote peer.
type SnippetClient struct {
	base   string
	client *http.Client
}

// DialSnippets connects to a peer's snippet service.
func DialSnippets(baseURL string, timeout time.Duration) *SnippetClient {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &SnippetClient{base: baseURL, client: &http.Client{Timeout: timeout}}
}

// Snippet fetches one result snippet.
func (c *SnippetClient) Snippet(tok auth.Token, docID uint32, query []string, width int) (SnippetResponse, error) {
	var resp SnippetResponse
	err := c.post(pathSnippet, tok, SnippetRequest{DocID: docID, Query: query, Width: width}, &resp)
	return resp, err
}

// Document fetches a whole document.
func (c *SnippetClient) Document(tok auth.Token, docID uint32) (DocumentResponse, error) {
	var resp DocumentResponse
	err := c.post(pathDocument, tok, DocumentRequest{DocID: docID}, &resp)
	return resp, err
}

func (c *SnippetClient) post(path string, tok auth.Token, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set(authHeader, string(tok))
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("peer: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("peer: %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
