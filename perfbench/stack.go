package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// Deployment shapes the workloads drive.
const (
	shapeServe    = "serve"    // one platform.Server behind platform.Handler on loopback
	shapeCluster  = "cluster"  // cluster.New over node backends, each on its own loopback listener
	shapeEmbedded = "embedded" // an in-process platform.Server, no wire
)

// epsilon is the published privacy budget every workload obfuscates with.
const epsilon = 0.6

// Cruising workers and arriving tasks use the Chengdu hotspot mixture with
// the uniform-background shares of the batch generator (workload.Chengdu).
const (
	workerBackground = 0.25
	taskBackground   = 0.12
)

// kmPerUnit converts region units (50 m cells of the 10 km Chengdu region)
// to kilometres.
const kmPerUnit = 0.05

// config is one workload's full parameter set. The workload seed is the only
// input the program's behaviour derives from; everything else is fixed per
// workload (tests shrink the sizes).
type config struct {
	name      string
	shape     string
	seed      uint64
	grid      int // grid columns = rows over workload.ChengduRegion
	fleet     int // registered workers
	policy    engine.Policy
	capacity  func(i int) int // declared capacity of worker i (0 = server default)
	batch     int             // tasks per Submit call; > 1 uses SubmitBatch
	nodes     int             // cluster backends
	callers   int             // closed-loop callers
	window    time.Duration   // timed steady window
	warmup    time.Duration   // untimed traffic before the window
	slice     time.Duration   // steady-window statistics are medians over slices of this length
	setups    int             // set-ups per run; setup_s is their median
	rotations int             // closing two-phase rotations; rotate_s is their median

	// wrapCore, when set, wraps the in-process engine the server fronts
	// (serve and embedded shapes). Tests use it to inject faults.
	wrapCore func(platform.Core) platform.Core
}

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"serve-churn", "cluster-churn", "embedded-batch"}

// newConfig returns the full-size configuration of a workload.
func newConfig(name string, seed uint64, window time.Duration) (config, error) {
	c := config{
		name:      name,
		seed:      seed,
		grid:      64,
		fleet:     16384,
		policy:    engine.Greedy(),
		batch:     1,
		nodes:     3,
		callers:   2,
		window:    window,
		warmup:    time.Second,
		slice:     time.Second,
		setups:    3,
		rotations: 5,
	}
	switch name {
	case "serve-churn":
		c.shape = shapeServe
	case "cluster-churn":
		c.shape = shapeCluster
	case "embedded-batch":
		c.shape = shapeEmbedded
		c.fleet = 65536
		c.policy = engine.BatchOptimal(0)
		c.capacity = func(i int) int { return 1 + i%3 }
		c.batch = 64
		// An in-process set-up takes about 0.7 s of CPU, most of it the
		// tree build, whose CPU time alone moves by ±25% with the
		// machine's load. Seven set-ups take about as long as the churn
		// workloads' three.
		c.setups = 7
	default:
		return config{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return c, nil
}

// backend is the client surface the callers drive: *platform.Client over
// HTTP, *cluster.Client against a coordinator, or *platform.Server in
// process.
type backend interface {
	Publication() platform.Publication
	Register(platform.RegisterRequest) platform.RegisterResponse
	Submit(platform.TaskRequest) platform.TaskResponse
	SubmitBatch(platform.TaskBatchRequest) platform.TaskBatchResponse
	Release(platform.ReleaseRequest) platform.RegisterResponse
	PrepareRotate(platform.PrepareRotateRequest) platform.PrepareRotateResponse
	Rotate(platform.RotateRequest) platform.RotateResponse
}

// stack is one running deployment.
type stack struct {
	srv     *platform.Server // the serving stack (the coordinator's on the cluster)
	callers []backend        // one per closed-loop caller
	eng     *engine.Engine   // the in-process engine; nil on the cluster
	stops   []func()
}

func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// listen serves h on a fresh loopback listener. The returned stop closes
// the listener and every connection and waits until the serve loop exits.
func listen(h http.Handler) (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close() // the listener's close error carries nothing to act on
		wg.Wait()
	}, nil
}

// buildTree derives the published HST exactly as platform.NewServer does
// when no tree is injected, so a traced server that fronts a wrapped engine
// publishes the same tree as an untraced one.
func buildTree(c config) (*hst.Tree, error) {
	grid, err := geo.NewGrid(workload.ChengduRegion, c.grid, c.grid)
	if err != nil {
		return nil, err
	}
	return hst.Build(grid.Points(), rng.New(c.seed).Derive("server-hst"))
}

// build starts the workload's deployment. With tr nil it uses the
// production constructors only; with a tracer every layer seam is wrapped.
func build(c config, tr *tracer) (*stack, error) {
	st := &stack{}
	var err error
	switch c.shape {
	case shapeCluster:
		err = buildCluster(c, tr, st)
	default:
		err = buildServer(c, tr, st)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// buildServer starts the serve and embedded shapes.
func buildServer(c config, tr *tracer, st *stack) error {
	var opts []platform.ServerOption
	if tr == nil && c.wrapCore == nil {
		opts = append(opts, platform.WithPolicy(c.policy))
	} else {
		tree, err := buildTree(c)
		if err != nil {
			return err
		}
		eng, err := engine.NewWithOptions(tree, 0, engine.WithPolicy(c.policy))
		if err != nil {
			return err
		}
		var core platform.Core = eng
		if tr != nil {
			core = &timedCore{Core: eng, eng: eng, tr: tr}
		}
		if c.wrapCore != nil {
			core = c.wrapCore(core)
		}
		opts = append(opts, platform.WithCore(core))
	}
	srv, err := platform.NewServer(workload.ChengduRegion, c.grid, c.grid, epsilon, c.seed, opts...)
	if err != nil {
		return err
	}
	st.srv = srv
	st.eng, _ = srv.Core().(*engine.Engine)
	if tc, ok := srv.Core().(*timedCore); ok {
		st.eng = tc.eng
	}
	if c.shape == shapeEmbedded {
		for range c.callers {
			st.callers = append(st.callers, srv)
		}
		return nil
	}
	h := platform.Handler(srv)
	if tr != nil {
		h = tr.handler(h, handlerLayer)
	}
	url, stop, err := listen(h)
	if err != nil {
		return err
	}
	st.stops = append(st.stops, stop)
	return dialCallers(c, tr, st, url, func(u string) (*platform.Client, error) { return platform.NewClient(u) })
}

// buildCluster starts the coordinator and its node backends.
func buildCluster(c config, tr *tracer, st *stack) error {
	if c.wrapCore != nil {
		return fmt.Errorf("%s: the coordinator's core cannot be wrapped from outside the program", c.name)
	}
	tree, err := buildTree(c)
	if err != nil {
		return err
	}
	conns := make([]cluster.NodeConn, c.nodes)
	var nodeHTTP *http.Client
	if tr != nil {
		nodeHTTP = tr.nodeClient()
		st.stops = append(st.stops, nodeHTTP.CloseIdleConnections)
	}
	for i := range conns {
		h := cluster.NodeHandler(cluster.NewNode())
		if tr != nil {
			h = tr.handler(h, nodeLayer)
		}
		url, stop, err := listen(h)
		if err != nil {
			return err
		}
		st.stops = append(st.stops, stop)
		if tr != nil {
			tr.addNode(url)
			conns[i] = cluster.DialNodeClient(url, nodeHTTP)
		} else {
			conns[i] = cluster.DialNode(url)
		}
	}
	coord, err := cluster.New(cluster.Config{
		Region: workload.ChengduRegion, Cols: c.grid, Rows: c.grid,
		Epsilon: epsilon, Seed: c.seed, Nodes: conns, Tree: tree,
	})
	if err != nil {
		return err
	}
	st.srv = coord.Server()
	h := coord.Handler()
	if tr != nil {
		h = tr.handler(h, handlerLayer)
	}
	url, stop, err := listen(h)
	if err != nil {
		return err
	}
	st.stops = append(st.stops, stop)
	return dialCallers(c, tr, st, url, func(u string) (*platform.Client, error) {
		cl, err := cluster.Dial(u)
		if err != nil {
			return nil, err
		}
		return cl.Client, nil
	})
}

// dialCallers connects one client per caller. Traced clients get their own
// timing RoundTripper over one shared transport, mirroring the shared
// production connection pool.
func dialCallers(c config, tr *tracer, st *stack, url string, dial func(string) (*platform.Client, error)) error {
	for k := range c.callers {
		cl, err := dial(url)
		if err != nil {
			return err
		}
		if tr != nil {
			cl.HTTP = tr.callerClient(k)
		}
		st.callers = append(st.callers, cl)
	}
	if tr != nil {
		st.stops = append(st.stops, tr.closeCallerConns)
	}
	return nil
}

// fleet is the registered worker population: ids, true locations, declared
// capacities. It derives from the workload seed alone.
type fleet struct {
	ids   []string
	locs  []geo.Point
	caps  []int
	index map[string]int
}

func newFleet(c config) *fleet {
	f := &fleet{
		ids:   make([]string, c.fleet),
		locs:  make([]geo.Point, c.fleet),
		caps:  make([]int, c.fleet),
		index: make(map[string]int, c.fleet),
	}
	sample := workload.ChengduSampler(workerBackground)
	src := rng.New(c.seed).Derive("fleet")
	for i := range f.ids {
		f.ids[i] = "w" + strconv.Itoa(i)
		f.locs[i] = sample(src)
		f.caps[i] = 1
		if c.capacity != nil {
			f.caps[i] = c.capacity(i)
		}
		f.index[f.ids[i]] = i
	}
	return f
}

// register obfuscates every worker's true location client-side and
// registers the fleet, split across the callers as in the steady phase.
// It returns the registrations attempted and refused.
func register(c config, st *stack, f *fleet) (attempted, failed int64, err error) {
	pub := st.callers[0].Publication()
	var wg sync.WaitGroup
	fails := make([]int64, len(st.callers))
	errs := make([]error, len(st.callers))
	for k, b := range st.callers {
		obf, err := platform.NewObfuscator(pub, rng.New(c.seed).DeriveN("register", k).Seed())
		if err != nil {
			return 0, 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(f.ids); i += len(st.callers) {
				req := platform.RegisterRequest{
					WorkerID: f.ids[i],
					Code:     []byte(obf.Obfuscate(f.locs[i])),
					Epoch:    pub.Epoch,
				}
				if c.capacity != nil {
					req.Capacity = f.caps[i]
				}
				if resp := b.Register(req); !resp.OK {
					fails[k]++
					if errs[k] == nil {
						errs[k] = fmt.Errorf("register %s: %s", req.WorkerID, resp.Reason)
					}
				}
			}
		}()
	}
	wg.Wait()
	for k := range fails {
		failed += fails[k]
		if err == nil {
			err = errs[k]
		}
	}
	return int64(len(f.ids)), failed, err
}
