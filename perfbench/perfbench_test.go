package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny shrinks a workload to a smoke-test size.
func tiny(t *testing.T, name string) config {
	t.Helper()
	c, err := newConfig(name, 7, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c.grid = 16
	c.fleet = 256
	if c.shape == shapeEmbedded {
		c.fleet = 1024
	}
	c.warmup = 50 * time.Millisecond
	c.slice = c.window
	c.setups = 2
	c.rotations = 1
	return c
}

// checkSchema runs one workload and checks the result line against the
// declared metrics: every name, with its unit, and nothing else.
func checkSchema(t *testing.T, c config, traced bool, want map[string]string) {
	t.Helper()
	res, err := run(c, traced, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%t: %v", c.name, traced, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", c.name, traced, res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s trace=%t: metric %s missing", c.name, traced, name)
		case m.Unit != unit:
			t.Errorf("%s trace=%t: metric %s in %q, declared %q", c.name, traced, name, m.Unit, unit)
		case !traced && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", c.name, name, m.Value)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s trace=%t: undeclared metric %s", c.name, traced, name)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("%s trace=%t: result does not encode: %v", c.name, traced, err)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: declared %s, program %s", i, w.Name, workloadNames[i])
		}
	}
	e2e := map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(layers) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(layers), len(perLayerNames))
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			c := tiny(t, name)
			checkSchema(t, c, false, e2e)
			checkSchema(t, c, true, layers)
		})
	}
}

// reassignCore is a faulty engine: in every window it hands the worker it
// assigned to the window's first task to the next three tasks as well, so
// that worker is assigned past any capacity the fleet declares.
type reassignCore struct {
	platform.Core
}

func (c *reassignCore) AssignBatch(codes []hst.Code) ([]int, []int) {
	ids, lvls := c.Core.AssignBatch(codes)
	if len(ids) >= 4 && ids[0] != engine.None {
		for j := 1; j < 4; j++ {
			ids[j] = ids[0]
		}
	}
	return ids, lvls
}

func TestGateCatchesDoubleAssignment(t *testing.T) {
	c := tiny(t, "embedded-batch")
	c.setups, c.rotations = 1, 0
	c.wrapCore = func(core platform.Core) platform.Core { return &reassignCore{Core: core} }
	res, err := run(c, false, io.Discard)
	var ge *gateError
	if !errors.As(err, &ge) || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("run = %+v, %v; want a correctness gate failure", res, err)
	}
	if res != nil {
		t.Errorf("a failed gate returned metrics: %+v", res)
	}
	t.Log(err)
}

// bypassCore is a faulty trace wrapper: every third assignment goes straight
// to the engine, past the timing wrapper, so the engine spans miss calls the
// program made. The program's behaviour does not change.
type bypassCore struct {
	*timedCore
	calls atomic.Int64
}

func (c *bypassCore) Assign(code hst.Code) (int, int, bool) {
	if c.calls.Add(1)%3 == 0 {
		return c.eng.Assign(code)
	}
	return c.timedCore.Assign(code)
}

func TestSpanCountsCatchMissedCalls(t *testing.T) {
	c := tiny(t, "serve-churn")
	c.setups, c.rotations = 1, 0
	c.wrapCore = func(core platform.Core) platform.Core {
		if tc, ok := core.(*timedCore); ok {
			return &bypassCore{timedCore: tc}
		}
		return core
	}
	res, err := run(c, true, io.Discard)
	var ge *gateError
	if !errors.As(err, &ge) || !strings.Contains(err.Error(), "engine.assign spans") {
		t.Fatalf("run = %+v, %v; want a span-count failure", res, err)
	}
	if res != nil {
		t.Errorf("a failed check returned metrics: %+v", res)
	}
	t.Log(err)
}

func TestLedgerFlagsOverCapacity(t *testing.T) {
	f := newFleet(config{seed: 1, fleet: 2, capacity: func(i int) int { return 1 + i }})
	led := newLedger(f)
	for _, id := range []string{"w0", "w1", "w1"} {
		if _, _, ok := led.assign(id, f.locs[0]); !ok {
			t.Fatalf("assign %s refused", id)
		}
	}
	if len(led.violations) != 0 {
		t.Fatalf("within capacity, got violations %v", led.violations)
	}
	led.assign("w0", f.locs[0])
	led.release(1, f.locs[1])
	led.release(1, f.locs[1])
	led.release(1, f.locs[1])
	if len(led.violations) != 2 {
		t.Fatalf("want an over-capacity and an over-release violation, got %v", led.violations)
	}
}

func TestOpCounterCountsAcrossReads(t *testing.T) {
	env := `{"ops":[{"kind":"` + cluster.OpAssignSubtree + `","code":"0012"},{"kind":"insert","code":"0013"},{"kind":"` + cluster.OpAssignSubtree + `"}]}`
	for _, chunk := range []int{1, 3, 7, len(env)} {
		c := &opCounter{ReadCloser: io.NopCloser(iotest.HalfReader(strings.NewReader(env)))}
		buf := make([]byte, chunk)
		for {
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
		if ops, assigns := c.ops.Load(), c.assigns.Load(); ops != 3 || assigns != 2 {
			t.Errorf("reads of %d bytes: counted %d ops, %d assigns; want 3, 2", chunk, ops, assigns)
		}
	}
}
