package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// The traced run times every call into a layer's public seam from the
// benchmark's own code: a platform.Core wrapper around the engine, http.Handler
// wrappers around platform.Handler and cluster.NodeHandler, timing
// RoundTrippers on the caller clients and the coordinator's node client, and
// timers around the Obfuscator and in-process Server calls. Spans are
// aggregated in memory by phase and kind and summarised when the run ends.

// phase is the part of a run a span belongs to.
type phase int32

const (
	phaseIdle phase = iota
	phaseSetup
	phaseSteady
	phaseRotate
	numPhases

	// phaseTraffic is set while the callers drive traffic. A span then
	// belongs to the steady phase if it ends inside the timed window, the
	// rule by which the callers record their own operations, and to the
	// idle phase otherwise.
	phaseTraffic = numPhases
)

// kind names one span class: a layer and the operation it served.
type kind int

const (
	kPrivacy     kind = iota // Obfuscator.Obfuscate, per call
	kCodecSubmit             // Client.Submit minus its transport round trips

	kRTTSubmit // caller → server round trip, request sent to response body read
	kRTTRelease
	kRTTRegister
	kRTTOther

	kHandlerSubmit // platform.Handler (the coordinator's on the cluster)
	kHandlerRelease
	kHandlerRegister
	kHandlerOther

	kEngAssign // platform.Core calls on the in-process engine
	kEngAssignBatch
	kEngInsert
	kEngAddCap
	kEngRemove
	kEngSwap

	kNodeOps        // coordinator → node /v2/node/ops envelope round trip
	kNodeAssignWait // the same round trips, counted once per assign-subtree op they carried
	kNodeRoot       // root-tier min-id and pop-min round trips
	kNodePrepare
	kNodeCommit
	kNodeOther

	kNodeHandlerOps // cluster.NodeHandler serving an envelope
	kNodeHandlerOther

	numKinds
)

var kindNames = [numKinds]string{
	"privacy.obfuscate", "client.codec.submit",
	"transport.rtt.submit", "transport.rtt.release", "transport.rtt.register", "transport.rtt.other",
	"handler.submit", "handler.release", "handler.register", "handler.other",
	"engine.assign", "engine.assign_batch", "engine.insert", "engine.add_capacity", "engine.remove", "engine.swap",
	"node.rtt.ops", "node.rtt.ops_per_assign", "node.rtt.root", "node.rtt.prepare", "node.rtt.commit", "node.rtt.other",
	"node.handler.ops", "node.handler.other",
}

// spanStat aggregates the spans of one kind: count and total duration.
type spanStat struct{ n, ns atomic.Int64 }

func (s *spanStat) mean() float64 { return safeDiv(float64(s.ns.Load()), float64(s.n.Load())) }

// maxNodes bounds the per-node counters; the cluster workload runs three.
const maxNodes = 8

type tracer struct {
	phase atomic.Int32
	stats [numPhases][numKinds]spanStat
	dials [numPhases]atomic.Int64

	// The timed window while phaseTraffic is set, in nanoseconds since base.
	base             time.Time
	winStart, winEnd atomic.Int64

	// Node-tier counters (whole run unless split by phase in stats).
	nodeOps     [maxNodes]atomic.Int64 // envelope sub-ops per node, steady phase
	nodeErrors  atomic.Int64
	minIDPolls  atomic.Int64 // steady phase
	envelopeOps atomic.Int64 // steady phase
	rotateBytes atomic.Int64 // size of the last /v1/rotate request body

	mu        sync.Mutex
	nodeHosts map[string]int

	callerRTs       []*callerRT
	callerTransport *http.Transport
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), nodeHosts: map[string]int{}}
	t.callerTransport = t.countingTransport()
	return t
}

func (t *tracer) setPhase(p phase) { t.phase.Store(int32(p)) }

// startTraffic sets phaseTraffic with the timed window [start, end).
func (t *tracer) startTraffic(start, end time.Time) {
	t.winStart.Store(start.Sub(t.base).Nanoseconds())
	t.winEnd.Store(end.Sub(t.base).Nanoseconds())
	t.setPhase(phaseTraffic)
}

// cur is the phase a span that ends now belongs to.
func (t *tracer) cur() phase {
	p := phase(t.phase.Load())
	if p != phaseTraffic {
		return p
	}
	if now := time.Since(t.base).Nanoseconds(); now >= t.winStart.Load() && now < t.winEnd.Load() {
		return phaseSteady
	}
	return phaseIdle
}

func (t *tracer) add(k kind, d time.Duration) { t.addN(k, 1, d) }

// addN records n calls of kind k that took d in total.
func (t *tracer) addN(k kind, n int64, d time.Duration) {
	s := &t.stats[t.cur()][k]
	s.n.Add(n)
	s.ns.Add(d.Nanoseconds())
}

func (t *tracer) stat(p phase, k kind) *spanStat { return &t.stats[p][k] }

// countingTransport is the production serving transport with a dialer that
// counts the callers' new connections.
func (t *tracer) countingTransport() *http.Transport {
	tp := platform.NewTransport()
	dial := tp.DialContext
	tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		t.dials[t.cur()].Add(1)
		return dial(ctx, network, addr)
	}
	return tp
}

// timedBody fires done once, when the response body is read to its end or
// closed, whichever comes first: the end of a round trip as the caller sees
// it.
type timedBody struct {
	io.ReadCloser
	done  func()
	fired bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.fire()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.fire()
	return b.ReadCloser.Close()
}

func (b *timedBody) fire() {
	if !b.fired {
		b.fired = true
		b.done()
	}
}

// callerRT times one caller's round trips. A caller's requests run on its
// own goroutine, so rtt (the caller's round-trip time since the last
// resetRTT) links each Client call to the transport time inside it.
type callerRT struct {
	base http.RoundTripper
	tr   *tracer
	rtt  time.Duration
}

func (c *callerRT) RoundTrip(req *http.Request) (*http.Response, error) {
	k := kRTTOther
	switch req.URL.Path {
	case platform.PathTask:
		k = kRTTSubmit
	case platform.PathRelease:
		k = kRTTRelease
	case platform.PathRegister:
		k = kRTTRegister
	case platform.PathRotate:
		c.tr.rotateBytes.Store(req.ContentLength)
	}
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(start)
		c.rtt += d
		c.tr.add(k, d)
	}}
	return resp, nil
}

// callerClient returns caller k's HTTP client: a timing RoundTripper over
// the shared counting transport.
func (t *tracer) callerClient(k int) *http.Client {
	for len(t.callerRTs) <= k {
		t.callerRTs = append(t.callerRTs, &callerRT{base: t.callerTransport, tr: t})
	}
	return &http.Client{Transport: t.callerRTs[k]}
}

func (t *tracer) closeCallerConns() { t.callerTransport.CloseIdleConnections() }

func (t *tracer) resetRTT(k int) {
	if t != nil && k < len(t.callerRTs) {
		t.callerRTs[k].rtt = 0
	}
}

// takeRTT returns caller k's round-trip time since the last resetRTT; ok is
// false when the caller reaches its server without a wire.
func (t *tracer) takeRTT(k int) (rtt time.Duration, ok bool) {
	if t == nil || k >= len(t.callerRTs) {
		return 0, false
	}
	return t.callerRTs[k].rtt, true
}

// addNode registers a node backend's base URL so its traffic is counted
// per node.
func (t *tracer) addNode(baseURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodeHosts[baseURL[len("http://"):]] = len(t.nodeHosts)
}

func (t *tracer) nodeOf(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodeHosts[host]
}

// nodeClient is the coordinator's node client for the traced run: the
// production transport under a timing RoundTripper.
func (t *tracer) nodeClient() *http.Client {
	return &http.Client{Transport: &nodeRT{base: platform.NewTransport(), tr: t}}
}

// nodeRT times coordinator → node round trips, and counts the sub-ops of
// each envelope by kind as the transport reads its body.
type nodeRT struct {
	base http.RoundTripper
	tr   *tracer
}

var (
	opSep       = []byte(`"kind":`)
	assignOpSep = []byte(`"kind":"` + cluster.OpAssignSubtree + `"`)
)

// opCounter counts the sub-ops of an envelope body as it is read, without
// keeping the body: a sub-op is an occurrence of opSep, an assign-subtree
// op one of assignOpSep. The last len(assignOpSep)-1 bytes are carried into
// the next read, so a separator split across two reads is counted once;
// occurrences that lie wholly inside the carry were counted by the read
// before and are subtracted.
type opCounter struct {
	io.ReadCloser
	buf          []byte
	ops, assigns atomic.Int64
}

func (c *opCounter) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	if n > 0 {
		carry := len(c.buf)
		c.buf = append(c.buf, p[:n]...)
		for _, q := range []struct {
			sep []byte
			n   *atomic.Int64
		}{{opSep, &c.ops}, {assignOpSep, &c.assigns}} {
			q.n.Add(int64(bytes.Count(c.buf, q.sep) - bytes.Count(c.buf[:carry], q.sep)))
		}
		keep := min(len(c.buf), len(assignOpSep)-1)
		c.buf = append(c.buf[:0], c.buf[len(c.buf)-keep:]...)
	}
	return n, err
}

func (n *nodeRT) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	nd := n.tr.nodeOf(req.URL.Host)
	var body *opCounter
	if path == cluster.PathNodeOps && req.Body != nil {
		body = &opCounter{ReadCloser: req.Body}
		r2 := *req // a RoundTripper must not modify the caller's request
		r2.Body = body
		req = &r2
	}
	start := time.Now()
	resp, err := n.base.RoundTrip(req)
	if err != nil {
		n.tr.nodeErrors.Add(1)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		n.tr.nodeErrors.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(start)
		t := n.tr
		switch path {
		case cluster.PathNodeOps:
			t.add(kNodeOps, d)
			var ops, assigns int64
			if body != nil {
				ops, assigns = body.ops.Load(), body.assigns.Load()
			}
			t.addN(kNodeAssignWait, assigns, time.Duration(assigns)*d)
			if t.cur() == phaseSteady {
				t.nodeOps[nd%maxNodes].Add(ops)
				t.envelopeOps.Add(ops)
			}
		case cluster.PathNodeMinID:
			t.add(kNodeRoot, d)
			if t.cur() == phaseSteady {
				t.minIDPolls.Add(1)
			}
		case cluster.PathNodePopMin:
			t.add(kNodeRoot, d)
		case cluster.PathNodePrepare:
			t.add(kNodePrepare, d)
		case cluster.PathNodeCommit:
			t.add(kNodeCommit, d)
		default:
			t.add(kNodeOther, d)
		}
	}}
	return resp, nil
}

// Handler layers.
const (
	handlerLayer = iota // platform.Handler, alone or as the coordinator's
	nodeLayer           // cluster.NodeHandler
)

type timedHandler struct {
	h     http.Handler
	tr    *tracer
	layer int
}

func (t *tracer) handler(h http.Handler, layer int) http.Handler {
	return &timedHandler{h: h, tr: t, layer: layer}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.h.ServeHTTP(w, r)
	d := time.Since(start)
	k := kHandlerOther
	switch {
	case h.layer == nodeLayer && r.URL.Path == cluster.PathNodeOps:
		k = kNodeHandlerOps
	case h.layer == nodeLayer:
		k = kNodeHandlerOther
	case r.URL.Path == platform.PathTask || r.URL.Path == platform.PathTaskBatch:
		k = kHandlerSubmit
	case r.URL.Path == platform.PathRelease:
		k = kHandlerRelease
	case r.URL.Path == platform.PathRegister:
		k = kHandlerRegister
	}
	h.tr.add(k, d)
}

// timedCore times the serving calls into the engine. It forwards
// SwapEpochSeq, so a rotation stays on the engine's streaming path, and it
// deliberately has no AssignErr, which the engine does not have either.
type timedCore struct {
	platform.Core
	eng *engine.Engine
	tr  *tracer
}

func (c *timedCore) Assign(code hst.Code) (int, int, bool) {
	start := time.Now()
	id, lvl, ok := c.Core.Assign(code)
	c.tr.add(kEngAssign, time.Since(start))
	return id, lvl, ok
}

func (c *timedCore) AssignBatch(codes []hst.Code) ([]int, []int) {
	start := time.Now()
	ids, lvls := c.Core.AssignBatch(codes)
	c.tr.add(kEngAssignBatch, time.Since(start))
	return ids, lvls
}

func (c *timedCore) InsertEpoch(code hst.Code, id int, epoch int64) error {
	start := time.Now()
	err := c.Core.InsertEpoch(code, id, epoch)
	c.tr.add(kEngInsert, time.Since(start))
	return err
}

func (c *timedCore) InsertCapEpoch(code hst.Code, id, capacity int, epoch int64) error {
	start := time.Now()
	err := c.Core.InsertCapEpoch(code, id, capacity, epoch)
	c.tr.add(kEngInsert, time.Since(start))
	return err
}

func (c *timedCore) AddCapacityEpoch(code hst.Code, id int, epoch int64) error {
	start := time.Now()
	err := c.Core.AddCapacityEpoch(code, id, epoch)
	c.tr.add(kEngAddCap, time.Since(start))
	return err
}

func (c *timedCore) Remove(code hst.Code, id int) bool {
	start := time.Now()
	ok := c.Core.Remove(code, id)
	c.tr.add(kEngRemove, time.Since(start))
	return ok
}

func (c *timedCore) RemoveUnits(code hst.Code, id int) (int, bool) {
	start := time.Now()
	units, ok := c.Core.RemoveUnits(code, id)
	c.tr.add(kEngRemove, time.Since(start))
	return units, ok
}

func (c *timedCore) SwapEpoch(epoch int64, tree *hst.Tree, shards int, inserts []engine.EpochInsert) error {
	start := time.Now()
	err := c.Core.SwapEpoch(epoch, tree, shards, inserts)
	c.tr.add(kEngSwap, time.Since(start))
	return err
}

func (c *timedCore) SwapEpochSeq(epoch int64, tree *hst.Tree, shards int, seq func(yield func(engine.EpochInsert) bool)) error {
	start := time.Now()
	err := c.eng.SwapEpochSeq(epoch, tree, shards, seq)
	c.tr.add(kEngSwap, time.Since(start))
	return err
}
