package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/wire"
)

// Wire-path body bounds: requests are small control messages, responses can
// carry a publication or a batch result.
const (
	maxRequestBytes  = 1 << 20
	maxResponseBytes = 64 << 20
)

// HTTP endpoint paths.
const (
	PathPublication   = "/v1/publication"
	PathRegister      = "/v1/register"
	PathReregister    = "/v1/reregister"
	PathRelease       = "/v1/release"
	PathWithdraw      = "/v1/withdraw"
	PathTask          = "/v1/task"
	PathTaskBatch     = "/v1/tasks"
	PathStats         = "/v1/stats"
	PathRotatePrepare = "/v1/rotate/prepare"
	PathRotate        = "/v1/rotate"
)

// Handler exposes a Server over JSON/HTTP.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPublication, func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		pub := s.Publication() // locked read: the tree and epoch rotate
		writeJSON(w, wirePublication{
			Tree:    pub.Tree,
			MinX:    pub.Region.MinX,
			MinY:    pub.Region.MinY,
			MaxX:    pub.Region.MaxX,
			MaxY:    pub.Region.MaxY,
			Cols:    pub.Cols,
			Rows:    pub.Rows,
			Epsilon: pub.Epsilon,
			Epoch:   pub.Epoch,
		})
	})
	mux.HandleFunc(PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.Register(req))
	})
	mux.HandleFunc(PathReregister, func(w http.ResponseWriter, r *http.Request) {
		var req ReregisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.Reregister(req))
	})
	mux.HandleFunc(PathRelease, func(w http.ResponseWriter, r *http.Request) {
		var req ReleaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.Release(req))
	})
	mux.HandleFunc(PathWithdraw, func(w http.ResponseWriter, r *http.Request) {
		var req WithdrawRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.Withdraw(req))
	})
	mux.HandleFunc(PathTask, func(w http.ResponseWriter, r *http.Request) {
		var req TaskRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.Submit(req))
	})
	mux.HandleFunc(PathTaskBatch, func(w http.ResponseWriter, r *http.Request) {
		var req TaskBatchRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.SubmitBatch(req))
	})
	mux.HandleFunc(PathRotatePrepare, func(w http.ResponseWriter, r *http.Request) {
		var req PrepareRotateRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.PrepareRotate(req))
	})
	mux.HandleFunc(PathRotate, func(w http.ResponseWriter, r *http.Request) {
		var req RotateRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.Rotate(req))
	})
	mux.HandleFunc(PathStats, func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		writeJSON(w, s.Stats())
	})
	return mux
}

// wirePublication flattens Publication for JSON (geo.Rect has no tags and
// the tree marshals through its Published form).
type wirePublication struct {
	Tree    *hst.Tree `json:"tree"`
	MinX    float64   `json:"min_x"`
	MinY    float64   `json:"min_y"`
	MaxX    float64   `json:"max_x"`
	MaxY    float64   `json:"max_y"`
	Cols    int       `json:"cols"`
	Rows    int       `json:"rows"`
	Epsilon float64   `json:"epsilon"`
	Epoch   int64     `json:"epoch,omitempty"`
}

// Client is an HTTP Backend: agents on other machines talk to the server
// through it. It is safe for concurrent use: the cached publication is
// re-fetched by Rotate, so reads and that refresh synchronise on a lock.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	pubMu sync.RWMutex
	pub   *Publication
}

// NewTransport returns an http.Transport tuned for the serving path:
// keep-alives on, enough idle connections per host that a fan-in of
// concurrent clients (or a coordinator's fan-out to one node) never churns
// through fresh TCP handshakes, and bounded dial/TLS timeouts so a dead
// peer fails fast instead of hanging a request slot.
func NewTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          512,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// servingClient is the process-wide default HTTP client: one shared
// connection pool, so many Clients against the same server reuse the same
// keep-alive connections instead of each growing their own.
var servingClient = &http.Client{Transport: NewTransport()}

// NewClient returns a client for a server base URL (e.g.
// "http://localhost:8080"). It fetches and caches the publication eagerly
// so construction fails fast on connectivity problems.
func NewClient(baseURL string) (*Client, error) {
	c := &Client{BaseURL: baseURL, HTTP: servingClient}
	var wire wirePublication
	if err := c.get(PathPublication, &wire); err != nil {
		return nil, err
	}
	if wire.Tree == nil {
		return nil, fmt.Errorf("platform: server published no tree")
	}
	c.pub = pubFromWire(&wire)
	return c, nil
}

// pubFromWire folds the flattened wire form back into a Publication — the
// one conversion site both the constructor and post-rotation re-fetch use.
func pubFromWire(wire *wirePublication) *Publication {
	return &Publication{
		Tree:    wire.Tree,
		Region:  geo.NewRect(geo.Pt(wire.MinX, wire.MinY), geo.Pt(wire.MaxX, wire.MaxY)),
		Cols:    wire.Cols,
		Rows:    wire.Rows,
		Epsilon: wire.Epsilon,
		Epoch:   wire.Epoch,
	}
}

// Publication returns the cached publication.
func (c *Client) Publication() Publication {
	c.pubMu.RLock()
	defer c.pubMu.RUnlock()
	return *c.pub
}

// clientError folds a transport or server failure into the structured
// taxonomy: a decoded wire *Error passes through typed, anything else
// (connection refused, timeout, undecodable body) becomes unavailable.
func clientError(err error) *Error {
	var pe *Error
	if errors.As(err, &pe) {
		return pe
	}
	return unavailableError(err)
}

// Register implements Backend over HTTP.
func (c *Client) Register(req RegisterRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.post(PathRegister, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Reregister updates a worker's reported leaf over HTTP.
func (c *Client) Reregister(req ReregisterRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.post(PathReregister, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Release returns an assigned worker to the pool over HTTP.
func (c *Client) Release(req ReleaseRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.post(PathRelease, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Withdraw takes a worker offline over HTTP.
func (c *Client) Withdraw(req WithdrawRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.post(PathWithdraw, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Submit implements Backend over HTTP.
func (c *Client) Submit(req TaskRequest) TaskResponse {
	var resp TaskResponse
	if err := c.post(PathTask, req, &resp); err != nil {
		e := clientError(err)
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	return resp
}

// SubmitBatch submits a task batch over HTTP.
func (c *Client) SubmitBatch(req TaskBatchRequest) TaskBatchResponse {
	var resp TaskBatchResponse
	if err := c.post(PathTaskBatch, req, &resp); err != nil {
		e := clientError(err)
		out := TaskBatchResponse{Results: make([]TaskResponse, len(req.Tasks))}
		for i := range out.Results {
			out.Results[i] = TaskResponse{Assigned: false, Reason: e.Message, Err: e}
		}
		return out
	}
	return resp
}

// PrepareRotate stages the next epoch over HTTP and returns the staged
// tree for client-side re-obfuscation. Operator-facing: a deployment
// would protect the rotation endpoints behind its admin plane.
func (c *Client) PrepareRotate(req PrepareRotateRequest) PrepareRotateResponse {
	var resp PrepareRotateResponse
	if err := c.post(PathRotatePrepare, req, &resp); err != nil {
		e := clientError(err)
		return PrepareRotateResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Rotate commits a staged rotation over HTTP with the collected fresh
// reports. On success the client re-fetches and re-caches the publication
// so subsequent agent construction sees the new epoch; if that re-fetch
// fails the commit still happened server-side, so OK stays true and the
// failure is surfaced in Reason — the caller must re-fetch before building
// agents, or they will be refused as stale.
func (c *Client) Rotate(req RotateRequest) RotateResponse {
	var resp RotateResponse
	if err := c.post(PathRotate, req, &resp); err != nil {
		e := clientError(err)
		return RotateResponse{OK: false, Reason: e.Message, Err: e}
	}
	if resp.OK {
		var wire wirePublication
		switch err := c.get(PathPublication, &wire); {
		case err != nil:
			resp.Reason = fmt.Sprintf("rotation committed, but publication re-fetch failed: %v", err)
		case wire.Tree == nil:
			resp.Reason = "rotation committed, but the re-fetched publication has no tree"
		default:
			c.pubMu.Lock()
			c.pub = pubFromWire(&wire)
			c.pubMu.Unlock()
		}
	}
	return resp
}

// Stats fetches the server counters.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.get(PathStats, &resp)
	return resp, err
}

var _ Backend = (*Client)(nil)
var _ API = (*Client)(nil)

func (c *Client) get(path string, out any) error {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("platform: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(path, resp, out)
}

func (c *Client) post(path string, in, out any) error {
	cb := wire.Get()
	defer wire.Put(cb)
	if err := cb.Encode(in); err != nil {
		return fmt.Errorf("platform: encode %s: %w", path, err)
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, cb.Reader())
	if err != nil {
		return fmt.Errorf("platform: POST %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	// The request bytes are pooled scratch that is reclaimed when this call
	// returns; nothing (redirect replay, transparent retry) may re-read them
	// later.
	req.GetBody = nil
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("platform: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(path, resp, out)
}

func decodeResponse(path string, resp *http.Response, out any) error {
	cb := wire.Get()
	defer wire.Put(cb)
	// Read the body to EOF into pooled scratch before decoding: a
	// json.Decoder stops at the end of the value and leaves the trailing
	// newline unread, which defeats net/http keep-alive reuse.
	if err := cb.ReadAll(resp.Body, maxResponseBytes); err != nil {
		return fmt.Errorf("platform: read %s: %w", path, err)
	}
	body := bytes.TrimSpace(cb.Bytes())
	if resp.StatusCode != http.StatusOK {
		if len(body) > 4<<10 {
			body = body[:4<<10]
		}
		// Error statuses carry a structured Error body; surface it typed so
		// callers can errors.Is against the sentinels. Non-JSON bodies (a
		// proxy's error page) fall back to a plain error.
		var we Error
		if json.Unmarshal(body, &we) == nil && we.Code != "" {
			return &we
		}
		return fmt.Errorf("platform: %s returned %s: %s", path, resp.Status, body)
	}
	if err := cb.Unmarshal(out); err != nil {
		return fmt.Errorf("platform: decode %s: %w", path, err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	cb := wire.Get()
	defer wire.Put(cb)
	// Encode into pooled scratch first: a failure surfaces as a clean 500
	// instead of a half-written 200, and the explicit Content-Length lets
	// the client see the body end without a chunked trailer.
	if err := cb.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(cb.Len()))
	w.Write(cb.Bytes())
}

// writeError answers with an HTTP error status whose body is the structured
// Error as JSON — the transport-level half of the error taxonomy (refusals
// with well-formed requests ride inside 200 response envelopes instead).
func writeError(w http.ResponseWriter, status int, e *Error) {
	cb := wire.Get()
	defer wire.Put(cb)
	// Same encode-first discipline as writeJSON: an Error that will not
	// encode degrades to a plain-text 500 rather than a silently empty body.
	if err := cb.Encode(e); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(cb.Len()))
	w.WriteHeader(status)
	w.Write(cb.Bytes())
}

// requireGet guards a read-only endpoint: non-GET methods are answered with
// 405 and a structured Error body.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &Error{
			Code:    CodeMethodNotAllowed,
			Message: fmt.Sprintf("platform: %s requires GET, got %s", r.URL.Path, r.Method),
		})
		return false
	}
	return true
}

// checkContentType accepts application/json (with any parameters) and — for
// pre-taxonomy clients — an absent Content-Type; anything else is refused.
func checkContentType(r *http.Request) *Error {
	ct := r.Header.Get("Content-Type")
	if ct == "" || ct == "application/json" {
		// Fast path for the exact type every client in this repo sends:
		// mime.ParseMediaType allocates its parameter map even for a bare
		// type, which is measurable at serving rates.
		return nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || !strings.EqualFold(mt, "application/json") {
		return &Error{
			Code:    CodeUnsupportedMedia,
			Message: fmt.Sprintf("platform: %s requires application/json, got %q", r.URL.Path, ct),
		}
	}
	return nil
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, &Error{
			Code:    CodeMethodNotAllowed,
			Message: fmt.Sprintf("platform: %s requires POST, got %s", r.URL.Path, r.Method),
		})
		return false
	}
	if e := checkContentType(r); e != nil {
		writeError(w, http.StatusUnsupportedMediaType, e)
		return false
	}
	cb := wire.Get()
	defer wire.Put(cb)
	// DecodeAll drains a short tail past the size cap, so a keep-alive
	// connection is left clean for the next request on it.
	if err := cb.DecodeAll(r.Body, maxRequestBytes, v); err != nil {
		WriteBodyError(w, "platform: bad request", err)
		return false
	}
	return true
}

// WriteBodyError answers a request whose body could not be read or
// decoded. A body over its cap (wire.ErrTooLarge) is 413 too_large, with
// Connection: close when its tail was left unread (wire.ErrUndrained) so
// the unread bytes are never parsed as a next request; anything else is
// 400 bad_request. prefix leads the message.
func WriteBodyError(w http.ResponseWriter, prefix string, err error) {
	if !errors.Is(err, wire.ErrTooLarge) {
		writeError(w, http.StatusBadRequest, badRequestError(prefix+": "+err.Error()))
		return
	}
	if errors.Is(err, wire.ErrUndrained) {
		w.Header().Set("Connection", "close")
	}
	writeError(w, http.StatusRequestEntityTooLarge, &Error{Code: CodeTooLarge, Message: prefix + ": " + err.Error()})
}
