package main

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// ledger is the benchmark's own record of who holds what: each worker's
// true location and outstanding assignments. It is how the gate checks,
// independently of the server, that no worker is assigned past its
// capacity.
type ledger struct {
	mu         sync.Mutex
	f          *fleet
	locs       []geo.Point
	out        []int
	violations []string
}

func newLedger(f *fleet) *ledger {
	return &ledger{f: f, locs: slices.Clone(f.locs), out: make([]int, len(f.ids))}
}

func (l *ledger) violate(format string, args ...any) {
	if len(l.violations) < 10 {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// assign records that worker id was handed the task at p and returns the
// worker's index and true distance to the task, in region units.
func (l *ledger) assign(id string, p geo.Point) (int, float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.f.index[id]
	if !ok {
		l.violate("assignment to unknown worker %q", id)
		return 0, 0, false
	}
	l.out[i]++
	if l.out[i] > l.f.caps[i] {
		l.violate("worker %s holds %d tasks, capacity %d", id, l.out[i], l.f.caps[i])
	}
	return i, l.locs[i].Dist(p), true
}

// release records that worker i finished a task and is now at p. It
// runs before the Release request is sent: once the server has the report,
// another caller may be handed the worker again.
func (l *ledger) release(i int, p geo.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out[i]--
	if l.out[i] < 0 {
		l.violate("worker %s released more often than assigned", l.f.ids[i])
	}
	l.locs[i] = p
}

func (l *ledger) outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, o := range l.out {
		n += o
	}
	return n
}

// sample is one timed operation: its end and its latency, both in
// nanoseconds, the end relative to the start of the steady window.
type sample struct{ end, ns int64 }

// caller is one closed-loop client: it waits for each reply before it sends
// the next request.
type caller struct {
	k      int
	b      backend
	obf    *platform.Obfuscator
	src    *rng.Source
	taskAt workload.PointSampler
	tr     *tracer

	// Whole-run books, every phase included.
	submitted, assigned, refused, released, releaseFailed, epochMismatch int64

	// Steady-window records.
	subs, rels, done []sample // done.ns holds the tasks completed
	dist             float64  // Σ true distance of the window's assignments
	distN            int64
	obfCalls         int64
	winRefused       int64 // refused submits and failed releases
}

func newCallers(c config, st *stack) ([]*caller, error) {
	pub := st.callers[0].Publication()
	out := make([]*caller, len(st.callers))
	for k, b := range st.callers {
		obf, err := platform.NewObfuscator(pub, rng.New(c.seed).DeriveN("agent", k).Seed())
		if err != nil {
			return nil, err
		}
		out[k] = &caller{
			k: k, b: b, obf: obf,
			src:    rng.New(c.seed).DeriveN("traffic", k),
			taskAt: workload.ChengduSampler(taskBackground),
		}
	}
	return out, nil
}

// loop drives traffic until end. Operations that start at or after
// winStart and end before end are recorded; the rest is warm-up.
func (cl *caller) loop(batch int, epoch int64, led *ledger, winStart, end time.Time) {
	var (
		pts       = make([]geo.Point, batch)
		reqs      = make([]platform.TaskRequest, batch)
		held      = make([]int, 0, batch)
		heldTask  = make([]int, 0, batch) // the task each held worker serves
		moves     = make([]geo.Point, 0, batch)
		codes     = make([]hst.Code, 0, batch)
		taskCodes = make([]hst.Code, batch)
		single    = make([]platform.TaskResponse, 1)
		seq       = 0
		taskName  = "t" + strconv.Itoa(cl.k) + "-"
	)
	for {
		start := time.Now()
		if !start.Before(end) {
			return
		}
		rec := !start.Before(winStart)

		// Tasks arrive at true locations and are obfuscated on the device.
		for j := range pts {
			pts[j] = cl.taskAt(cl.src)
		}
		t0 := time.Now()
		for j, p := range pts {
			taskCodes[j] = cl.obf.Obfuscate(p)
		}
		if rec && cl.tr != nil {
			cl.tr.addN(kPrivacy, int64(batch), time.Since(t0))
		}
		for j := range reqs {
			seq++
			reqs[j] = platform.TaskRequest{TaskID: taskName + strconv.Itoa(seq), Code: []byte(taskCodes[j]), Epoch: epoch}
		}

		cl.tr.resetRTT(cl.k)
		t0 = time.Now()
		results := single
		if batch == 1 {
			single[0] = cl.b.Submit(reqs[0])
		} else {
			results = cl.b.SubmitBatch(platform.TaskBatchRequest{Tasks: reqs}).Results
		}
		t1 := time.Now()
		cl.submitted += int64(batch)
		if rec && t1.Before(end) {
			lat := t1.Sub(t0)
			cl.subs = append(cl.subs, sample{t1.Sub(winStart).Nanoseconds(), lat.Nanoseconds()})
			if rtt, ok := cl.tr.takeRTT(cl.k); ok {
				cl.tr.add(kCodecSubmit, lat-rtt)
			}
		}

		held, heldTask = held[:0], heldTask[:0]
		for j, r := range results {
			if !r.Assigned {
				cl.refused++
				if rec {
					cl.winRefused++
				}
				continue
			}
			cl.assigned++
			if r.Epoch != epoch {
				cl.epochMismatch++
			}
			i, d, ok := led.assign(r.WorkerID, pts[j])
			if !ok {
				continue
			}
			held, heldTask = append(held, i), append(heldTask, j)
			if rec {
				cl.dist += d
				cl.distN++
			}
		}

		// Each assigned worker travels to its task, finishes it and reports
		// again from there, as workers do in the churn simulator
		// (internal/sim): the task's location is its next true location.
		moves, codes = moves[:0], codes[:0]
		for _, j := range heldTask {
			moves = append(moves, pts[j])
		}
		t0 = time.Now()
		for _, p := range moves {
			codes = append(codes, cl.obf.Obfuscate(p))
		}
		if rec && cl.tr != nil && len(moves) > 0 {
			cl.tr.addN(kPrivacy, int64(len(moves)), time.Since(t0))
		}
		completed := int64(0)
		for n, i := range held {
			led.release(i, moves[n])
			t0 := time.Now()
			resp := cl.b.Release(platform.ReleaseRequest{WorkerID: led.f.ids[i], Code: []byte(codes[n]), Epoch: epoch})
			t1 := time.Now()
			if !resp.OK {
				cl.releaseFailed++
				if rec {
					cl.winRefused++
				}
				continue
			}
			cl.released++
			completed++
			if rec && t1.Before(end) {
				cl.rels = append(cl.rels, sample{t1.Sub(winStart).Nanoseconds(), t1.Sub(t0).Nanoseconds()})
			}
		}
		finish := time.Now()
		if rec && finish.Before(end) {
			cl.done = append(cl.done, sample{finish.Sub(winStart).Nanoseconds(), completed})
			cl.obfCalls += int64(batch + len(moves))
		}
	}
}

// windowStats are the steady window's end-to-end figures. The task rate is
// the median over fixed slices of the window, so one slow second on a
// shared machine moves it by at most one slice in ten; latency percentiles
// pool every sample of the window.
type windowStats struct {
	tasksPerS                   float64
	subP50, subP90, subP99      float64 // µs
	relP50, relP90, relP99      float64 // µs
	meanSubmitUs, meanReleaseUs float64
	meanKm                      float64
	submits, releases, tasks    int64
	refused                     int64 // refused submits and failed releases
	obfCalls                    int64
}

func summarize(cls []*caller, window, slice time.Duration) windowStats {
	n := max(1, int(window/slice))
	sliceNs := window.Nanoseconds() / int64(n)
	var ws windowStats
	done := make([]int64, n)
	var subs, rels []int64
	var dist float64
	var distN int64
	for _, cl := range cls {
		for _, s := range cl.done {
			if b := int(s.end / sliceNs); b < n {
				done[b] += s.ns
				ws.tasks += s.ns
			}
		}
		for _, s := range cl.subs {
			subs = append(subs, s.ns)
		}
		for _, s := range cl.rels {
			rels = append(rels, s.ns)
		}
		dist += cl.dist
		distN += cl.distN
		ws.obfCalls += cl.obfCalls
		ws.refused += cl.winRefused
	}
	rates := make([]float64, n)
	for b, tasks := range done {
		rates[b] = float64(tasks) / (float64(sliceNs) / 1e9)
	}
	ws.tasksPerS = median(rates)
	ws.submits, ws.releases = int64(len(subs)), int64(len(rels))
	ws.meanSubmitUs, ws.meanReleaseUs = mean(subs)/1e3, mean(rels)/1e3
	ws.subP50, ws.subP90, ws.subP99 = pct(subs, 0.50)/1e3, pct(subs, 0.90)/1e3, pct(subs, 0.99)/1e3
	ws.relP50, ws.relP90, ws.relP99 = pct(rels, 0.50)/1e3, pct(rels, 0.90)/1e3, pct(rels, 0.99)/1e3
	ws.meanKm = safeDiv(dist, float64(distN)) * kmPerUnit
	return ws
}

func mean(xs []int64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	return safeDiv(sum, float64(len(xs)))
}

// pct is the nearest-rank percentile of xs (sorted in place).
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rotation is one timed two-phase rotation of the whole fleet.
type rotation struct {
	total, prepare, reobfuscate, commit time.Duration
	cpu                                 time.Duration // process CPU time over total
	resp                                platform.RotateResponse
}

// rotationSeed fixes the construction randomness of the round-th rotation's
// tree. Building an HST costs from 0.33 to 0.68 s depending on its
// randomness, so rounds that built different trees in every run would add
// that spread to rotate_s; with fixed seeds every run builds the same trees,
// whatever the workload seed.
func rotationSeed(round int) uint64 { return uint64(round) + 1 }

// rotate stages the next epoch, re-obfuscates every worker's true location
// under the staged tree on the agents' side, and commits, all through the
// first caller's backend.
func rotate(c config, st *stack, led *ledger, round int) (rotation, error) {
	b := st.callers[0]
	var r rotation
	// Every rotation starts from a collected heap, so how far the previous
	// phase's GC cycle had run does not land in the timing.
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	prep := b.PrepareRotate(platform.PrepareRotateRequest{Seed: rotationSeed(round)})
	t1 := time.Now()
	if !prep.OK {
		return r, fmt.Errorf("prepare rotation: %s", prep.Reason)
	}
	pub := b.Publication()
	pub.Tree, pub.Epoch = prep.Tree, prep.Epoch
	obf, err := platform.NewObfuscator(pub, rng.New(c.seed).DeriveN("rotate", round).Seed())
	if err != nil {
		return r, err
	}
	led.mu.Lock()
	reports := make([]platform.WorkerReport, len(led.f.ids))
	for i, id := range led.f.ids {
		reports[i] = platform.WorkerReport{WorkerID: id, Code: []byte(obf.Obfuscate(led.locs[i]))}
	}
	led.mu.Unlock()
	t2 := time.Now()
	r.resp = b.Rotate(platform.RotateRequest{Epoch: prep.Epoch, Reports: reports})
	t3 := time.Now()
	r.cpu = cpuTime() - c0
	r.prepare, r.reobfuscate, r.commit, r.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	if !r.resp.OK {
		return r, fmt.Errorf("commit rotation: %s", r.resp.Reason)
	}
	return r, nil
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
