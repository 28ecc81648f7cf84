// Command perfbench is the repository's benchmark: one process that runs
// one named workload against the system's public entry points, checks
// every output for correctness and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call into a layer and reports the
// per-layer metrics instead. BENCHMARK.json at the repository root lists
// both sets; README.md in this directory explains the workloads.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload tables|serve-mix|serve-point|commit
//	          [-seed 1993] [-seconds 10] [-trace 0|1] [-work .bench_build]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the paper generator's seed, so the default tables run
// renders exactly the extension cotables renders.
const defaultSeed = 1993

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produces.
type result struct {
	attempted, failed int64
	// problems lists every failed correctness check; empty means correct.
	problems []string
	// endToEnd holds the gated metrics, layers the traced run's metrics.
	endToEnd map[string]metric
	layers   map[string]metric
	// notes are human-readable lines printed before the result line
	// (sample counts, supported percentiles, workload-specific metrics).
	notes []string
}

func newResult() *result {
	return &result{endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the parsed command line plus the scale the workloads run at.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string
	sc       scale
}

// workloadFuncs maps workload names to the functions that run them.
var workloadFuncs = map[string]func(*options, *tracer, *result) error{
	"tables":      runTables,
	"serve-mix":   runServeMix,
	"serve-point": runServePoint,
	"commit":      runCommit,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses args, runs the workload and prints the report. It returns
// the exit code: 0 only when every correctness check passed.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: tables, serve-mix, serve-point or commit")
		seed    = fs.Uint64("seed", defaultSeed, "benchmark seed; the generator and query seeds derive from it")
		seconds = fs.Float64("seconds", 10, "how long the measured phase runs")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		work    = fs.String("work", ".bench_build", "directory for temporary files and the trace output")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloadFuncs[*wl]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q (want one of %s)", *wl, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	o := &options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, sc: paperScale()}
	return execute(o, fn, stdout)
}

// execute runs one workload under o and prints the report.
func execute(o *options, fn func(*options, *tracer, *result) error, stdout io.Writer) (int, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return 1, err
	}
	env := fingerprint()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", envJSON)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := newResult()
	if err := fn(o, tr, res); err != nil {
		// A run that cannot complete prints no result line.
		return 1, fmt.Errorf("%s: %w", o.workload, err)
	}
	if tr != nil {
		path := fmt.Sprintf("%s/perfbench-trace-%s-%d.json", o.work, o.workload, o.seed)
		if err := tr.writeFile(path, o, env); err != nil {
			return 1, err
		}
		res.notef("trace: %d spans written to %s", tr.len(), path)
	}

	metrics := res.endToEnd
	if o.trace {
		metrics = res.layers
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, name := range sortedKeys(metrics) {
		m := metrics[name]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "# CHECK FAILED:", p)
	}
	correct := len(res.problems) == 0 && res.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1, fmt.Errorf("%s: %d correctness problems, %d of %d operations failed",
			o.workload, len(res.problems), res.failed, res.attempted)
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFuncs))
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// clients is the closed-loop client (and worker) count: one per CPU the
// process may use, so the load measures the program, not the scheduler.
func clients() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

// deadline returns the end of a measured phase of d seconds from now.
func deadline(d float64) time.Time {
	return time.Now().Add(time.Duration(d * float64(time.Second)))
}
