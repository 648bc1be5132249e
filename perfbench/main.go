// Command perfbench is the repository's benchmark. It drives the real client
// path (true locations, platform.Obfuscator reports, then platform.Client or
// platform.Server) with two closed-loop callers against one of three
// deployments, checks the outputs, and prints its metrics:
//
//	perfbench --workload serve-churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
// the workload untraced and then traced and prints the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A correctness violation prints no
// metrics and exits 1; any other failure exits 2. See README.md for the
// workloads, the metrics and the findings.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/platform"
)

func main() {
	name := flag.String("workload", "", "workload: serve-churn, cluster-churn or embedded-batch")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed steady window in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	c, err := newConfig(*name, *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(c, *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ge *gateError
		if errors.As(err, &ge) {
			os.Exit(1)
		}
		os.Exit(2)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation and returns its result line; the
// human-readable report goes to w as it runs.
func run(c config, traced bool, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "perfbench %s seed=%d window=%s trace=%t: %d callers (closed loop), fleet %d, grid %d, eps %g, GOMAXPROCS %d, NumCPU %d\n",
		c.name, c.seed, c.window, traced, c.callers, c.fleet, c.grid, epsilon, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if !traced {
		p, err := runPass(c, nil)
		if err != nil {
			return nil, err
		}
		return &result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(p, w)}, nil
	}
	// The traced run repeats the workload twice, once with production
	// constructors and once with every seam wrapped; the difference is the
	// tracing overhead. The untraced pass skips the set-up repeats and the
	// rotation phase, which only the traced pass needs.
	bc := c
	bc.setups, bc.rotations = 1, 0
	base, err := runPass(bc, nil)
	if err != nil {
		return nil, err
	}
	tc := c
	tc.setups = 1
	tr := newTracer()
	p, err := runPass(tc, tr)
	if err != nil {
		return nil, err
	}
	m, err := perLayer(c, p, base, tr, w)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: base.attempted + p.attempted, Failed: base.failed + p.failed, Metrics: m}, nil
}

// passResult is everything one pass measured.
type passResult struct {
	ws             windowStats
	setups         []time.Duration // wall clock
	setupCPU       []time.Duration // process CPU time
	cpuPerTaskUs   float64         // steady window
	liveHeapMiB    float64         // after set-up
	rotatedHeapMiB float64         // after the rotation phase
	rots           []rotation
	epoch0         int64
	attempted      int64
	failed         int64
	steadyStats    platform.StatsResponse
	occupancy      []int // per engine shard, after set-up
	shardStats     []engine.ShardStat
	allocsPerTask  float64
	gcCPUShare     float64
	gcPauseMaxUs   float64
}

// runPass sets the workload up, drives the warm-up and the timed steady
// window, runs the closing rotations with traffic paused, and gates the
// outcome. Of the c.setups set-ups, the first half run before the traffic,
// and the last of those is kept to serve it; the rest run after the gate,
// each closed again at once. The set-ups so sample the machine's speed at
// both ends of the run, which moves by a quarter from one minute to the
// next.
func runPass(c config, tr *tracer) (*passResult, error) {
	p := &passResult{}
	f := newFleet(c)
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	before := (c.setups + 1) / 2
	for s := 0; s < before; s++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = setUp(c, tr, f, p); err != nil {
			return nil, err
		}
	}
	tr.setPhaseIf(phaseIdle)

	p.liveHeapMiB = liveHeapMiB()
	if st.eng != nil {
		p.occupancy = st.eng.Occupancy()
	}

	led := newLedger(f)
	cls, err := newCallers(c, st)
	if err != nil {
		return nil, err
	}
	p.epoch0 = st.callers[0].Publication().Epoch
	winStart := time.Now().Add(c.warmup)
	end := winStart.Add(c.window)
	if tr != nil {
		tr.startTraffic(winStart, end)
	}
	var wg sync.WaitGroup
	for _, cl := range cls {
		cl.tr = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(c.batch, p.epoch0, led, winStart, end)
		}()
	}
	time.Sleep(time.Until(winStart))
	r0, cpu0 := readRuntime(), cpuTime()
	wg.Wait()
	r1, cpu1 := readRuntime(), cpuTime()
	tr.setPhaseIf(phaseIdle)

	p.ws = summarize(cls, c.window, c.slice)
	p.cpuPerTaskUs = safeDiv(float64((cpu1 - cpu0).Microseconds()), float64(p.ws.tasks))
	p.allocsPerTask = safeDiv(float64(r1.mallocs-r0.mallocs), float64(p.ws.tasks))
	p.gcCPUShare = safeDiv(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU)
	p.gcPauseMaxUs = maxPause(r0.ms, r1.ms) / 1e3
	p.steadyStats = st.srv.Stats()
	if st.eng != nil {
		p.shardStats = st.eng.ShardStats()
	}
	if len(led.violations) > 0 {
		return nil, gate(c, p, led, cls, p.steadyStats)
	}

	tr.setPhaseIf(phaseRotate)
	for r := 0; r < c.rotations; r++ {
		rot, err := rotate(c, st, led, r)
		p.attempted += 2
		if err != nil {
			p.failed++
			return nil, &gateError{violations: []string{fmt.Sprintf("rotation %d: %v", r, err)}}
		}
		p.rots = append(p.rots, rot)
	}
	tr.setPhaseIf(phaseIdle)
	p.rotatedHeapMiB = liveHeapMiB()

	for _, cl := range cls {
		p.attempted += cl.submitted + cl.released + cl.releaseFailed
		p.failed += cl.refused + cl.releaseFailed
	}
	if err := gate(c, p, led, cls, st.srv.Stats()); err != nil {
		return nil, err
	}
	st.close()
	st = nil
	for s := before; s < c.setups; s++ {
		extra, err := setUp(c, tr, f, p)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	tr.setPhaseIf(phaseIdle)
	return p, nil
}

// setUp builds the workload's stack and registers the fleet on it, and
// records the wall-clock and CPU time that took.
func setUp(c config, tr *tracer, f *fleet, p *passResult) (*stack, error) {
	// Every set-up starts from a collected heap, so the collection of the
	// previous stack does not land in the timing.
	runtime.GC()
	tr.setPhaseIf(phaseSetup)
	c0, t0 := cpuTime(), time.Now()
	st, err := build(c, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	att, failed, err := register(c, st, f)
	p.setups = append(p.setups, time.Since(t0))
	p.setupCPU = append(p.setupCPU, cpuTime()-c0)
	p.attempted += att
	p.failed += failed
	if err != nil {
		st.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return st, nil
}

// liveHeapMiB is the heap that survives two collections: the first moves
// pooled scratch to the pools' victim caches, the second frees it, so only
// state the stacks hold remains.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (t *tracer) setPhaseIf(ph phase) {
	if t != nil {
		t.setPhase(ph)
	}
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	ms              runtime.MemStats
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	var s runtimeSample
	runtime.ReadMemStats(&s.ms)
	s.mallocs = s.ms.Mallocs
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 && m[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = m[0].Value.Float64(), m[1].Value.Float64()
	}
	return s
}

// maxPause is the longest GC pause, in nanoseconds, of the collections
// between two readings (the runtime keeps the last 256).
func maxPause(a, b runtime.MemStats) float64 {
	first := a.NumGC + 1
	if b.NumGC >= 256 && first < b.NumGC-255 {
		first = b.NumGC - 255
	}
	var longest uint64
	for n := first; n <= b.NumGC; n++ {
		longest = max(longest, b.PauseNs[(n+255)%256])
	}
	return float64(longest)
}

// endToEnd reports the untraced pass's end-to-end metrics. The bounded ones
// held within their bounds across sets of runs on a shared VM whose speed
// moved by about a third with its neighbours' load: the Submit p50, the
// distance, allocations and heap, and the set-up's CPU time. Throughput, the
// Release p50 (on cluster-churn it spread past its bound), the latency
// tails, CPU time per task and the rotation times are printed, unbounded.
func endToEnd(p *passResult, w io.Writer) map[string]metric {
	seconds := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	var rotWall, rotCPU []time.Duration
	for _, r := range p.rots {
		rotWall = append(rotWall, r.total)
		rotCPU = append(rotCPU, r.cpu)
	}
	ws := p.ws
	fmt.Fprintf(w, "steady window: %d submit calls, %d releases, %d tasks completed\n", ws.submits, ws.releases, ws.tasks)
	fmt.Fprintf(w, "set-ups: wall %v s, cpu %v s; rotations: wall %v s, cpu %v s\n",
		roundAll(seconds(p.setups)), roundAll(seconds(p.setupCPU)), roundAll(seconds(rotWall)), roundAll(seconds(rotCPU)))
	fmt.Fprintf(w, "unbounded (%d failed of %d attempted, every phase):\n", p.failed, p.attempted)
	printMetrics(w, map[string]metric{
		"tasks_per_s":      {ws.tasksPerS, "tasks/s"},
		"submit_p90_us":    {ws.subP90, "us"},
		"submit_p99_us":    {ws.subP99, "us"},
		"release_p50_us":   {ws.relP50, "us"},
		"release_p90_us":   {ws.relP90, "us"},
		"release_p99_us":   {ws.relP99, "us"},
		"cpu_us_per_task":  {p.cpuPerTaskUs, "us"},
		"setup_wall_s":     {median(seconds(p.setups)), "s"},
		"rotate_s":         {median(seconds(rotWall)), "s"},
		"rotate_cpu_s":     {median(seconds(rotCPU)), "s"},
		"fail_ratio":       {safeDiv(float64(p.failed), float64(p.attempted)), "ratio"},
		"rotated_heap_mib": {p.rotatedHeapMiB, "MiB"},
	})
	m := map[string]metric{
		"submit_p50_us":    {ws.subP50, "us"},
		"mean_distance_km": {ws.meanKm, "km"},
		"allocs_per_task":  {p.allocsPerTask, "allocs/task"},
		"setup_s":          {median(seconds(p.setupCPU)), "s"},
		"live_heap_mb":     {p.liveHeapMiB, "MiB"},
	}
	fmt.Fprintln(w, "bounded:")
	printMetrics(w, m)
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}
