package platform

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/wire"
)

func TestHTTPMethodAndBodyErrors(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Wrong method on the publication endpoint.
	resp, err := http.Post(ts.URL+PathPublication, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST publication = %d, want 405", resp.StatusCode)
	}

	// Wrong method on a POST endpoint.
	resp, err = http.Get(ts.URL + PathRegister)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET register = %d, want 405", resp.StatusCode)
	}

	// Malformed JSON bodies on every POST endpoint.
	for _, path := range []string{PathRegister, PathReregister, PathTask} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad JSON on %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHTTPClientSurfacesServerErrors(t *testing.T) {
	// A server that always 500s: the client must fold the failure into the
	// response structs rather than panic.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathPublication {
			// Valid publication so NewClient succeeds.
			s := newTestServer(t)
			Handler(s).ServeHTTP(w, r)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp := client.Register(RegisterRequest{WorkerID: "w", Code: []byte{0}}); resp.OK {
		t.Error("500 register reported OK")
	} else if !strings.Contains(resp.Reason, "500") {
		t.Errorf("reason %q does not surface the status", resp.Reason)
	}
	if resp := client.Submit(TaskRequest{TaskID: "t", Code: []byte{0}}); resp.Assigned {
		t.Error("500 submit reported assigned")
	}
	if resp := client.Reregister(ReregisterRequest{WorkerID: "w", Code: []byte{0}}); resp.OK {
		t.Error("500 reregister reported OK")
	}
	if _, err := client.Stats(); err == nil {
		t.Error("500 stats reported no error")
	}
}

func TestHTTPClientRejectsNonJSONPublication(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>not json</html>"))
	}))
	defer ts.Close()
	if _, err := NewClient(ts.URL); err == nil {
		t.Error("HTML publication accepted")
	}
}

func TestHTTPClientRejectsEmptyPublication(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	if _, err := NewClient(ts.URL); err == nil {
		t.Error("publication without a tree accepted")
	}
}

// countingBody is a request body of n filler bytes that counts how many of
// them the handler read.
type countingBody struct{ n, read int64 }

func (c *countingBody) Read(p []byte) (int, error) {
	if c.read >= c.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), c.n-c.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	c.read += k
	return int(k), nil
}

// TestOversizedBodyIs413 pins the body cap: a request body past the /v1
// cap is answered 413 with a typed too_large Error, the handler reads at
// most the cap plus the drain budget however long the body is, and the
// connection is closed exactly when the tail was left unread.
func TestOversizedBodyIs413(t *testing.T) {
	h := Handler(newTestServer(t))
	for _, tc := range []struct {
		name  string
		size  int64
		close bool
	}{
		{"tail-past-budget", maxRequestBytes + 8<<20, true},
		{"short-tail", maxRequestBytes + 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &countingBody{n: tc.size}
			req := httptest.NewRequest(http.MethodPost, PathTask, body)
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.Bytes())
			}
			var e Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != CodeTooLarge {
				t.Fatalf("413 body %q is not a %s Error (%v)", rec.Body.Bytes(), CodeTooLarge, err)
			}
			if body.read > maxRequestBytes+wire.DrainBudget {
				t.Fatalf("handler read %d bytes, want at most %d", body.read, maxRequestBytes+wire.DrainBudget)
			}
			if !tc.close && body.read != tc.size {
				t.Fatalf("short tail left unread: read %d of %d bytes", body.read, tc.size)
			}
			if got := rec.Header().Get("Connection") == "close"; got != tc.close {
				t.Fatalf("Connection: close = %v, want %v", got, tc.close)
			}
		})
	}
}
