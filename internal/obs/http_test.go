package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"extremenc/internal/obs/trace"
)

func TestHandlerRoutesAndHeaders(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits", "test counter").Add(3)
	h := Handler(reg, nil)

	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/metrics", http.StatusOK},
		{http.MethodHead, "/metrics", http.StatusOK},
		{http.MethodGet, "/metrics.json", http.StatusOK},
		{http.MethodGet, "/debug/flight", http.StatusOK},
		{http.MethodGet, "/nope", http.StatusNotFound},
		{http.MethodPost, "/metrics", http.StatusMethodNotAllowed},
		{http.MethodPut, "/metrics.json", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/debug/flight", http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.status)
		}
		if got := rec.Header().Get("X-Content-Type-Options"); got != "nosniff" {
			t.Errorf("%s %s: X-Content-Type-Options = %q, want nosniff", tc.method, tc.path, got)
		}
	}
}

func TestHandlerMethodNotAllowedSetsAllow(t *testing.T) {
	h := Handler(NewRegistry(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("Allow = %q, want \"GET, HEAD\"", allow)
	}
}

func TestHandlerFlightRoute(t *testing.T) {
	r := trace.Enable(64)
	defer trace.Disable()
	trace.Emit(trace.KindDrain, "origin", "relay-1:9000", -1, 1)
	_ = r

	h := Handler(NewRegistry(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc trace.DumpDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("flight dump not valid JSON: %v", err)
	}
	if !doc.Enabled || len(doc.Events) != 1 || doc.Events[0].Kind != trace.KindDrain {
		t.Fatalf("unexpected dump: %+v", doc)
	}
}
