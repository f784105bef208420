package transport_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
)

// serverFingerprint captures everything an HTTP request must not change
// when it is rejected: stored elements and activity stats.
func serverFingerprint(s *server.Server) string {
	return fmt.Sprintf("%d/%v/%+v", s.TotalElements(), s.ListLengths(), s.StatsSnapshot())
}

// TestApplyHandlerErrorPaths drives /v1/apply (and the lookup
// endpoints) through every malformed-request shape: each must produce a
// clean 4xx and leave the store byte-for-byte untouched. The handler is
// the cluster's only unauthenticated-input surface, so "reject without
// side effects" is a correctness bar, not a nicety.
func TestApplyHandlerErrorPaths(t *testing.T) {
	srv, tok := newServer(t)
	ts := httptest.NewServer(transport.NewHTTPHandler(srv))
	defer ts.Close()

	// One legitimate element so "untouched" means a non-empty store.
	if err := transporttest.Insert(context.Background(), srv, tok,
		[]transport.InsertOp{{List: 1, Share: sampleShare(7, 70)}}); err != nil {
		t.Fatal(err)
	}
	before := serverFingerprint(srv)

	validApply := func(stage uint8) string {
		body, err := json.Marshal(map[string]any{
			"op":      transport.OpID{ID: 99, Stage: stage},
			"inserts": []transport.InsertOp{{List: 2, Share: sampleShare(8, 80)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	retired := func(ops any) string {
		body, err := json.Marshal(ops)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	defer transport.SetBodyLimit(4 << 10)()

	cases := []struct {
		name     string
		path     string
		method   string
		token    string
		body     string
		wantCode int
	}{
		{
			name: "malformed JSON", path: "/v1/apply",
			body: `{"op":{"id":1,`, wantCode: http.StatusBadRequest,
		},
		{
			name: "truncated body", path: "/v1/apply",
			body: validApply(1)[:20], wantCode: http.StatusBadRequest,
		},
		{
			name: "wrong JSON shape", path: "/v1/apply",
			body: `[1,2,3]`, wantCode: http.StatusBadRequest,
		},
		{
			name: "unknown mutation stage", path: "/v1/apply",
			token: "valid", body: validApply(7), wantCode: http.StatusBadRequest,
		},
		{
			name: "oversized payload", path: "/v1/apply",
			body:     `{"op":{"id":1,"stage":1},"inserts":[` + strings.Repeat(`{"list":2},`, 1<<10) + `{"list":2}]}`,
			wantCode: http.StatusRequestEntityTooLarge,
		},
		{
			name: "wrong method", path: "/v1/apply", method: http.MethodGet,
			body: validApply(1), wantCode: http.StatusMethodNotAllowed,
		},
		{
			name: "invalid token", path: "/v1/apply",
			token: "garbage", body: validApply(1), wantCode: http.StatusUnauthorized,
		},
		{
			// The retired standalone routes are unknown paths now, even
			// for the exact request an old client would send.
			name: "retired insert route", path: "/v1/insert", token: "valid",
			body:     retired([]transport.InsertOp{{List: 2, Share: sampleShare(8, 80)}}),
			wantCode: http.StatusNotFound,
		},
		{
			name: "retired delete route", path: "/v1/delete", token: "valid",
			body:     retired([]transport.DeleteOp{{List: 1, ID: 7}}),
			wantCode: http.StatusNotFound,
		},
		{
			name: "malformed JSON on lookup", path: "/v1/lookup",
			body: `{`, wantCode: http.StatusBadRequest,
		},
		{
			name: "malformed JSON on lookupblocks", path: "/v1/lookupblocks",
			body: `{"list":`, wantCode: http.StatusBadRequest,
		},
		{
			name: "wrong method on lookupblocks", path: "/v1/lookupblocks",
			method: http.MethodGet, body: `{"list":1,"from":0,"n":4}`,
			wantCode: http.StatusMethodNotAllowed,
		},
		{
			name: "oversized payload on lookupblocks", path: "/v1/lookupblocks",
			body:     `{"list":1,"from":0,"n":4,"pad":"` + strings.Repeat("x", 8<<10) + `"}`,
			wantCode: http.StatusRequestEntityTooLarge,
		},
		{
			name: "invalid token on lookupblocks", path: "/v1/lookupblocks",
			token: "garbage", body: `{"list":1,"from":0,"n":4}`,
			wantCode: http.StatusUnauthorized,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			req, err := http.NewRequest(method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			switch tc.token {
			case "valid":
				req.Header.Set("Authorization", string(tok))
			case "":
			default:
				req.Header.Set("Authorization", tc.token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if resp.StatusCode < 400 || resp.StatusCode > 499 {
				t.Errorf("status %d is not a clean 4xx", resp.StatusCode)
			}
			if got := serverFingerprint(srv); got != before {
				t.Errorf("rejected request mutated the server: %s -> %s", before, got)
			}
		})
	}
}

// TestApplyStageValidationDirect pins the server-side stage check below
// the HTTP layer: an OpID carrying an unknown stage is rejected before
// any mutation, on the direct API as well.
func TestApplyStageValidationDirect(t *testing.T) {
	srv, tok := newServer(t)
	before := serverFingerprint(srv)
	err := srv.Apply(context.Background(), tok,
		transport.OpID{ID: 5, Stage: 9},
		[]transport.InsertOp{{List: 1, Share: sampleShare(1, 10)}}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown mutation stage") {
		t.Fatalf("Apply with stage 9: err = %v, want unknown-stage error", err)
	}
	if got := serverFingerprint(srv); got != before {
		t.Errorf("rejected stage mutated the server: %s -> %s", before, got)
	}
	// The zero OpID (stage 0) stays valid: it means "no deduplication".
	if err := srv.Apply(context.Background(), tok, transport.OpID{},
		[]transport.InsertOp{{List: 1, Share: sampleShare(1, 10)}}, nil); err != nil {
		t.Fatalf("zero OpID rejected: %v", err)
	}
}

// FuzzApplyRequest fuzzes the /v1/apply decode path end-to-end through
// the HTTP handler: arbitrary bodies must never panic the server and —
// since no fuzz input carries a validly signed token — must never
// mutate the store. Run with
// `go test -fuzz=FuzzApplyRequest ./internal/transport`.
func FuzzApplyRequest(f *testing.F) {
	srv, _ := newServer(f)
	handler := transport.NewHTTPHandler(srv)
	if added := srv.Store().Upsert(1, []posting.EncryptedShare{sampleShare(3, 30)}); added != 1 {
		f.Fatalf("seeding the store appended %d shares, want 1", added)
	}
	baseline := serverFingerprint(srv)

	f.Add([]byte(`{"op":{"id":1,"stage":1},"inserts":[{"list":2,"share":{"id":8,"group":1,"y":80}}]}`))
	f.Add([]byte(`{"op":{"id":1,"stage":2},"deletes":[{"list":1,"id":3}]}`))
	f.Add([]byte(`{"op":{"id":0,"stage":0}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"list":4294967295}]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/apply", bytes.NewReader(body))
		req.Header.Set("Authorization", "fuzzed-token")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			t.Fatalf("unauthenticated apply accepted: body %q", body)
		}
		if got := serverFingerprint(srv); got != baseline {
			t.Fatalf("rejected apply mutated the server: %s -> %s (body %q)", baseline, got, body)
		}
	})
}
