package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Add-up tolerance: the layer self times of a Submit must sum to the
// callers' mean Submit latency within addupShare of it plus addupFloorUs.
// The floor absorbs timer reads and the spans that straddle the window's
// edges; the share absorbs attributing engine and node time to Submits by
// per-op means where a span cannot be linked to its parent.
const (
	addupShare   = 0.05
	addupFloorUs = 1.0
)

// maxRequestBytes mirrors the platform's request body cap
// (internal/platform/http.go); a /v1/rotate request carries the whole fleet.
const maxRequestBytes = 1 << 20

// perLayer turns the traced pass p (and the untraced pass base of the same
// run) into the per-layer metrics, and checks that the layers of a Submit
// add up to its end-to-end latency. Metrics of a layer the workload does not
// have are reported as 0 and listed with the reason.
func perLayer(c config, p, base *passResult, tr *tracer, w io.Writer) (map[string]metric, error) {
	steady := func(k kind) *spanStat { return tr.stat(phaseSteady, k) }
	rotateMs := func(k kind) float64 { return tr.stat(phaseRotate, k).mean() / 1e6 }
	us := func(ns float64) float64 { return ns / 1e3 }
	perTask := func(n float64) float64 { return safeDiv(n, float64(p.ws.tasks)) }

	printSpans(w, tr)

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Layer self times of one Submit, in µs. Core and node calls carry no
	// request context, so their time is attributed to Submits by per-op
	// means over the steady window: Submit is the only caller of Assign and
	// AssignBatch, and assign-subtree ops and root rounds are only sent for
	// Submits.
	L := p.ws.meanSubmitUs
	var parts []float64
	var partNames []string
	addPart := func(name string, v float64) {
		parts = append(parts, v)
		partNames = append(partNames, name)
	}
	hSub := steady(kHandlerSubmit)
	H := us(hSub.mean())
	rtt := us(steady(kRTTSubmit).mean())
	codec := us(steady(kCodecSubmit).mean())
	var absent []string
	switch c.shape {
	case shapeServe:
		E := us(safeDiv(float64(steady(kEngAssign).ns.Load()), float64(hSub.n.Load())))
		addPart("client.codec", codec)
		addPart("transport.wire", rtt-H)
		addPart("handler.self", H-E)
		addPart("engine", E)
		set("handler.self_us", H-E, "us")
		absent = append(absent, "server.release_us server.self_us: the handler and the server are one span over HTTP; see handler.*",
			"coord.* node.*: no coordinator or node tier")
	case shapeCluster:
		N := us(safeDiv(float64(steady(kNodeAssignWait).ns.Load()+steady(kNodeRoot).ns.Load()), float64(hSub.n.Load())))
		addPart("client.codec", codec)
		addPart("transport.wire", rtt-H)
		addPart("coord.self", H-N)
		addPart("node", N)
		set("handler.self_us", H-N, "us")
		set("coord.handler_us", H, "us")
		set("coord.self_us", H-N, "us")
		absent = append(absent, "server.release_us server.self_us: the handler and the server are one span over HTTP; see handler.*",
			"engine.* (but mean_lca_level): the node engines are not reachable from outside the program")
	case shapeEmbedded:
		batches := steady(kEngAssignBatch)
		E := us(safeDiv(float64(batches.ns.Load()+steady(kEngAssign).ns.Load()), float64(batches.n.Load())))
		addPart("server.self", L-E)
		addPart("engine", E)
		set("server.release_us", p.ws.meanReleaseUs, "us")
		set("server.self_us", L-E, "us")
		absent = append(absent, "client.* transport.* handler.* (but refusals): no wire; the callers hold the server",
			"coord.* node.*: no coordinator or node tier")
	}
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	residual := L - sum

	set("privacy.obfuscate_us", us(steady(kPrivacy).mean()), "us")
	set("privacy.calls_per_task", perTask(float64(p.ws.obfCalls)), "calls/task")
	if c.shape != shapeEmbedded {
		set("client.codec_us", codec, "us")
		set("transport.rtt_us", rtt, "us")
		set("transport.wire_us", rtt-H, "us")
		var reqs int64
		for _, k := range []kind{kRTTSubmit, kRTTRelease, kRTTRegister, kRTTOther} {
			reqs += steady(k).n.Load()
		}
		set("transport.reqs_per_task", perTask(float64(reqs)), "reqs/task")
		set("transport.new_conns", float64(tr.dials[phaseSteady].Load()), "count")
		set("handler.submit_us", H, "us")
		set("handler.release_us", us(steady(kHandlerRelease).mean()), "us")
		set("handler.register_us", us(tr.stat(phaseSetup, kHandlerRegister).mean()), "us")
	}
	set("handler.refusals", float64(p.ws.refused), "count")

	if c.shape != shapeCluster {
		var calls int64
		for _, k := range []kind{kEngAssign, kEngAssignBatch, kEngInsert, kEngAddCap, kEngRemove} {
			calls += steady(k).n.Load()
		}
		set("engine.assign_us", us(steady(kEngAssign).mean()), "us")
		set("engine.assign_batch_us", us(steady(kEngAssignBatch).mean()), "us")
		set("engine.insert_us", us(steady(kEngInsert).mean()), "us")
		set("engine.add_capacity_us", us(steady(kEngAddCap).mean()), "us")
		set("engine.remove_us", us(steady(kEngRemove).mean()), "us")
		set("engine.calls_per_task", perTask(float64(calls)), "calls/task")
		set("engine.swap_ms", rotateMs(kEngSwap), "ms")
		set("engine.shard_max_share", maxShare(p.occupancy), "ratio")
		var assigns, fallbacks int64
		for _, s := range p.shardStats {
			assigns += s.Assigns
			fallbacks += s.Fallbacks
		}
		set("engine.fallback_ratio", safeDiv(float64(fallbacks), float64(assigns)), "ratio")
		fmt.Fprintf(w, "engine occupancy per shard after set-up: %v (%d shards)\n", p.occupancy, len(p.occupancy))
	}
	set("engine.mean_lca_level", p.steadyStats.MeanMatchLevel, "level")

	var prep, reobf, commit []float64
	for _, r := range p.rots {
		prep = append(prep, r.prepare.Seconds()*1e3)
		reobf = append(reobf, r.reobfuscate.Seconds()*1e3)
		commit = append(commit, r.commit.Seconds()*1e3)
	}
	set("epoch.prepare_ms", median(prep), "ms")
	set("epoch.reobfuscate_ms", median(reobf), "ms")
	set("epoch.commit_ms", median(commit), "ms")
	if b := tr.rotateBytes.Load(); b > 0 {
		fmt.Fprintf(w, "rotate request: %d bytes for %d reports; the %d-byte request cap admits about %d reports\n",
			b, c.fleet, maxRequestBytes, int(float64(maxRequestBytes)/(float64(b)/float64(c.fleet))))
	}

	if c.shape == shapeCluster {
		ops := steady(kNodeOps)
		nodeRTT, nodeH := us(ops.mean()), us(steady(kNodeHandlerOps).mean())
		set("node.rtt_us", nodeRTT, "us")
		set("node.handler_us", nodeH, "us")
		set("node.wire_us", nodeRTT-nodeH, "us")
		set("node.envelopes_per_task", perTask(float64(ops.n.Load())), "envelopes/task")
		set("node.ops_per_envelope", safeDiv(float64(tr.envelopeOps.Load()), float64(ops.n.Load())), "ops/envelope")
		set("node.root_rounds_per_task", perTask(float64(tr.minIDPolls.Load())/float64(c.nodes)), "rounds/task")
		perNode := make([]int, c.nodes)
		for i := range perNode {
			perNode[i] = int(tr.nodeOps[i].Load())
		}
		set("node.max_share", maxShare(perNode), "ratio")
		set("node.errors", float64(tr.nodeErrors.Load()), "count")
		set("node.prepare_ms", rotateMs(kNodePrepare), "ms")
		set("node.commit_ms", rotateMs(kNodeCommit), "ms")
		fmt.Fprintf(w, "node envelope ops per node (steady window): %v\n", perNode)
	}

	set("runtime.allocs_per_task", base.allocsPerTask, "allocs/task")
	set("runtime.gc_cpu_share", base.gcCPUShare, "ratio")
	set("runtime.gc_pause_max_us", base.gcPauseMaxUs, "us")
	set("trace.overhead_tasks_per_s", p.ws.tasksPerS-base.ws.tasksPerS, "tasks/s")
	set("trace.overhead_submit_p50_us", p.ws.subP50-base.ws.subP50, "us")

	for _, name := range perLayerNames {
		if _, ok := m[name.name]; !ok {
			m[name.name] = metric{0, name.unit}
		}
	}
	for _, a := range absent {
		fmt.Fprintf(w, "reported as 0 on %s: %s\n", c.name, a)
	}
	fmt.Fprintf(w, "untraced pass: %.1f tasks/s, submit p50 %.2f us; traced pass: %.1f tasks/s, submit p50 %.2f us\n",
		base.ws.tasksPerS, base.ws.subP50, p.ws.tasksPerS, p.ws.subP50)
	printMetrics(w, m)

	// The add-up check. Self times are residuals, so the sum telescopes and
	// the residual is close to 0 by construction; what can fail is a
	// negative self time, and the span counts checked after it.
	var b strings.Builder
	for i, n := range partNames {
		fmt.Fprintf(&b, " %s %.3f +", n, parts[i])
	}
	fmt.Fprintf(w, "add-up per Submit (us):%s = %.3f vs mean Submit %.3f (residual %.3f, tolerance %.3f)\n",
		strings.TrimSuffix(b.String(), " +"), sum, L, residual, addupShare*L+addupFloorUs)
	var v []string
	if math.Abs(residual) > addupShare*L+addupFloorUs {
		v = append(v, fmt.Sprintf("layers sum to %.3f us, mean Submit is %.3f us", sum, L))
	}
	for i, part := range parts {
		if part < -addupFloorUs {
			v = append(v, fmt.Sprintf("layer %s has negative self time %.3f us", partNames[i], part))
		}
	}
	v = append(v, spanCounts(c, p, tr, w)...)
	if len(v) > 0 {
		return nil, &gateError{violations: v}
	}
	return m, nil
}

// spanCounts checks that each layer saw the calls the callers made in the
// steady window. A wrapper that misses or double-counts calls does not move
// the sum of the self times, which telescopes, but it moves these counts.
// Two counts may differ by the calls in flight at the window's edges, which
// the callers and the spans can place on different sides of it: at most one
// per caller and edge, plus one for a node envelope that ends inside the
// window while its Submit ends after it.
func spanCounts(c config, p *passResult, tr *tracer, w io.Writer) []string {
	n := func(k kind) int64 { return tr.stat(phaseSteady, k).n.Load() }
	type pair struct {
		what      string
		got, want int64
	}
	var pairs []pair
	switch c.shape {
	case shapeServe, shapeCluster:
		h := n(kHandlerSubmit)
		pairs = append(pairs,
			pair{"transport.rtt.submit spans / caller submits", n(kRTTSubmit), p.ws.submits},
			pair{"handler.submit spans / caller submits", h, p.ws.submits},
			pair{"handler.release spans / caller releases", n(kHandlerRelease), p.ws.releases})
		if c.shape == shapeServe {
			pairs = append(pairs, pair{"engine.assign spans / handler.submit spans", n(kEngAssign), h})
		} else {
			pairs = append(pairs, pair{"assign-subtree node ops / handler.submit spans", n(kNodeAssignWait), h})
		}
	case shapeEmbedded:
		pairs = append(pairs, pair{"engine.assign_batch spans / caller windows", n(kEngAssignBatch) + n(kEngAssign), p.ws.submits})
	}
	slack := int64(2*c.callers + 1)
	var v []string
	for _, q := range pairs {
		fmt.Fprintf(w, "span count %s: %d / %d (slack %d)\n", q.what, q.got, q.want, slack)
		if d := q.got - q.want; d > slack || d < -slack || q.want == 0 {
			v = append(v, fmt.Sprintf("span count %s: %d / %d, more than %d apart", q.what, q.got, q.want, slack))
		}
	}
	return v
}

// printSpans writes the in-memory span aggregates out, phase by phase.
func printSpans(w io.Writer, tr *tracer) {
	names := [numPhases]string{"idle", "setup", "steady", "rotate"}
	fmt.Fprintf(w, "spans: %-8s %-28s %10s %12s\n", "phase", "layer.op", "count", "mean_us")
	for ph := phase(0); ph < numPhases; ph++ {
		for k := kind(0); k < numKinds; k++ {
			s := tr.stat(ph, k)
			if n := s.n.Load(); n > 0 {
				fmt.Fprintf(w, "spans: %-8s %-28s %10d %12.3f\n", names[ph], kindNames[k], n, s.mean()/1e3)
			}
		}
	}
}

// maxShare is the largest element's share of the total (0 when empty).
func maxShare(xs []int) float64 {
	total, top := 0, 0
	for _, x := range xs {
		total += x
		top = max(top, x)
	}
	return safeDiv(float64(top), float64(total))
}

// metricName is a declared metric and its unit.
type metricName struct{ name, unit string }

// perLayerNames lists every per-layer metric a traced run prints, in the
// order BENCHMARK.json declares them.
var perLayerNames = []metricName{
	{"privacy.obfuscate_us", "us"}, {"privacy.calls_per_task", "calls/task"},
	{"client.codec_us", "us"},
	{"transport.rtt_us", "us"}, {"transport.wire_us", "us"}, {"transport.reqs_per_task", "reqs/task"}, {"transport.new_conns", "count"},
	{"handler.submit_us", "us"}, {"handler.release_us", "us"}, {"handler.register_us", "us"}, {"handler.self_us", "us"}, {"handler.refusals", "count"},
	{"server.release_us", "us"}, {"server.self_us", "us"},
	{"engine.assign_us", "us"}, {"engine.assign_batch_us", "us"}, {"engine.insert_us", "us"}, {"engine.add_capacity_us", "us"},
	{"engine.remove_us", "us"}, {"engine.calls_per_task", "calls/task"}, {"engine.swap_ms", "ms"},
	{"engine.shard_max_share", "ratio"}, {"engine.fallback_ratio", "ratio"}, {"engine.mean_lca_level", "level"},
	{"epoch.prepare_ms", "ms"}, {"epoch.commit_ms", "ms"}, {"epoch.reobfuscate_ms", "ms"},
	{"coord.handler_us", "us"}, {"coord.self_us", "us"},
	{"node.rtt_us", "us"}, {"node.handler_us", "us"}, {"node.wire_us", "us"}, {"node.envelopes_per_task", "envelopes/task"},
	{"node.ops_per_envelope", "ops/envelope"}, {"node.root_rounds_per_task", "rounds/task"}, {"node.max_share", "ratio"},
	{"node.errors", "count"}, {"node.prepare_ms", "ms"}, {"node.commit_ms", "ms"},
	{"runtime.allocs_per_task", "allocs/task"}, {"runtime.gc_cpu_share", "ratio"}, {"runtime.gc_pause_max_us", "us"},
	{"trace.overhead_tasks_per_s", "tasks/s"}, {"trace.overhead_submit_p50_us", "us"},
}
