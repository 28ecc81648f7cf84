package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyScale runs every code path of the paper-scale benchmark in well
// under a second per run; the small checkpoint threshold makes the commit
// workload checkpoint too.
func tinyScale() scale {
	return scale{
		N: 100, PointN: 50, Buffer: 128,
		Loops: 20, Samples: 6,
		PointLoops: 2, PointSamples: 1,
		MixSeeds: 2, PointSeeds: 4,
		SetupReps:       2,
		CheckpointBytes: 1 << 20,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at tiny scale and returns its result line.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) runResult {
	t.Helper()
	o := &options{workload: workload, seed: seed, seconds: 0.3, trace: trace, work: t.TempDir(), sc: tinyScale()}
	var out bytes.Buffer
	code, err := execute(o, workloadFuncs[workload], &out)
	if code != 0 || err != nil {
		t.Fatalf("%s seed %d trace %v: exit %d: %v\n%s", workload, seed, trace, code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: %+v\n%s", workload, r, out.String())
	}
	return r
}

// TestWorkloadsSmoke runs every workload on two seeds and its traced run,
// and checks that each reports exactly the metrics BENCHMARK.json lists.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, seed := range []uint64{defaultSeed, 7} {
				r := runTiny(t, w.Name, seed, false)
				if len(r.Metrics) != len(b.EndToEnd) {
					t.Errorf("seed %d: %d end-to-end metrics, BENCHMARK.json lists %d", seed, len(r.Metrics), len(b.EndToEnd))
				}
				for _, m := range b.EndToEnd {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit == "" || got.Value <= 0 {
						t.Errorf("seed %d: end-to-end %s = %+v (present %v), want a positive value", seed, m.Name, got, ok)
					}
				}
			}
			r := runTiny(t, w.Name, defaultSeed, true)
			if len(r.Metrics) != len(b.PerLayer) {
				t.Errorf("traced: %d per-layer metrics, BENCHMARK.json lists %d", len(r.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("traced: per-layer %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program:
// the same workloads and the same per-layer metrics, units and
// directions, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "tables,serve-mix,serve-point,commit"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, w := range names {
		if workloadFuncs[w] == nil {
			t.Errorf("workload %s has no run function", w)
		}
	}
	want := layerMetrics()
	if len(b.PerLayer) != len(want) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(want))
	}
	for i := range min(len(want), len(b.PerLayer)) {
		got := b.PerLayer[i]
		if got.Name != want[i].name || got.Unit != want[i].unit || got.Better != want[i].better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, want[i])
		}
	}
	var setup bool
	for _, m := range b.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.99, 5}, {0, 1}, {0.2, 1}, {0.21, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := supportedTail(1000); got != "p99" {
		t.Errorf("supportedTail(1000) = %s, want p99", got)
	}
}

// TestTracerSelfTime: a parent's self time excludes its children, and
// spans of different requests never nest.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Req: 1, Name: "client", Start: 0, End: 100},
		{Req: 1, Name: "router", Start: 10, End: 90},
		{Req: 1, Name: "server", Start: 20, End: 80},
		{Req: 2, Name: "server", Start: 30, End: 40},
	}
	st := tr.stats()
	if got := st["client"].Self; got != 20 {
		t.Errorf("client self = %v, want 20", got)
	}
	if got := st["router"].Self; got != 20 {
		t.Errorf("router self = %v, want 20", got)
	}
	if got := st["server"].Self; got != 70 {
		t.Errorf("server self = %v, want 60+10", got)
	}
}
