package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pombm/pombm/internal/platform"
)

// FuzzNodeOps drives arbitrary /v2/node/ops bodies into a fresh node's
// handler. Invariants: the handler never panics; every non-200 answer is a
// typed platform.Error; a 200 answer is an OpsResponse with one result per
// op when ok; and re-posting the same body replays every keyed sub-op that
// applied byte-for-byte.
func FuzzNodeOps(f *testing.F) {
	tree := buildTree(f, 7)
	seed := func(ops ...OpRequest) {
		body, err := json.Marshal(OpsRequest{Ops: ops})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	c0, c1 := []byte(tree.CodeOf(0)), []byte(tree.CodeOf(1))
	seed(OpRequest{Kind: OpInsert, Idem: "a", Code: c0, ID: 1, Epoch: 1})
	seed(
		OpRequest{Kind: OpInsert, Idem: "a", Code: c0, ID: 1, Capacity: 2},
		OpRequest{Kind: OpAssignSubtree, Idem: "b", Code: c1, Epoch: 1},
		OpRequest{Kind: OpConsume, Idem: "c", Code: c0, ID: 1, Epoch: 1},
		OpRequest{Kind: OpAddCapacity, Idem: "d", Code: c0, ID: 1, Epoch: 1},
		OpRequest{Kind: OpRemove, Idem: "e", Code: c0, ID: 1},
	)
	seed(
		OpRequest{Kind: OpInsert, Idem: "s", Code: c0, ID: 2, Epoch: 9},
		OpRequest{Kind: OpInsert, Idem: "s", Code: c0, ID: 2, Epoch: 1},
	)
	seed(OpRequest{Kind: "nope", Idem: "x"}, OpRequest{Kind: OpRemove, Code: []byte{9, 9, 9}})
	f.Add([]byte(`{"ops":null}`))
	f.Add([]byte(`{"ops":[{"kind":"insert","code":[0,1],"id":-1}]}`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		node := NewNode()
		if err := node.Init(InitRequest{Tree: tree}); err != nil {
			t.Fatal(err)
		}
		h := NodeHandler(node)
		post := func() (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathNodeOps, bytes.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}

		status, first := post()
		if status != http.StatusOK {
			var e platform.Error
			if err := json.Unmarshal(first, &e); err != nil || e.Code == "" {
				t.Fatalf("status %d with an untyped body %q (%v)", status, first, err)
			}
			return
		}
		var resp OpsResponse
		if err := json.Unmarshal(first, &resp); err != nil {
			t.Fatalf("200 body is not an OpsResponse: %q (%v)", first, err)
		}
		var req OpsRequest
		if !resp.OK {
			if resp.Err == nil || resp.Err.Code == "" {
				t.Fatalf("refused envelope without a typed error: %q", first)
			}
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("envelope accepted an undecodable body: %v", err)
		}
		if len(resp.Results) != len(req.Ops) {
			t.Fatalf("%d results for %d ops", len(resp.Results), len(req.Ops))
		}
		if len(req.Ops) > replayCapPerGen {
			return // enough distinct keys to rotate recorded answers out
		}

		status, second := post()
		var again OpsResponse
		if status != http.StatusOK || json.Unmarshal(second, &again) != nil || len(again.Results) != len(req.Ops) {
			t.Fatalf("replayed envelope answered %d: %q", status, second)
		}
		for i, op := range req.Ops {
			var ack struct {
				OK bool `json:"ok"`
			}
			if op.Idem == "" || json.Unmarshal(resp.Results[i], &ack) != nil || !ack.OK {
				continue // unkeyed or refused: never recorded, so re-executed
			}
			if !bytes.Equal(resp.Results[i], again.Results[i]) {
				t.Fatalf("keyed op %d (%q) replayed differently:\n%s\n---\n%s",
					i, op.Idem, resp.Results[i], again.Results[i])
			}
		}
	})
}
