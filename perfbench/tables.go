package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"complexobj/cobench"
	"complexobj/experiments"
	"complexobj/internal/xrand"
)

// sectionNames name experiments.Sections() in order, for the
// experiments.<name>_s layer metrics.
var sectionNames = []string{
	"table1", "table2", "table3", "matrix", "table7", "table8", "fig5", "fig6",
	"index_ablation", "policy_ablation", "device_time", "cluster", "buffer_sweep",
}

// querySeed derives the seed of the queries' random object selections
// from the benchmark seed (the generator seed is the benchmark seed).
func querySeed(seed uint64) uint64 { return xrand.Mix(seed, 1) }

func genConfig(n int, seed uint64) cobench.Config {
	gen := cobench.DefaultConfig().WithN(n)
	gen.Seed = seed
	return gen
}

func tablesConfig(o *options, workers int, backend string) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Gen = genConfig(o.sc.N, o.seed)
	cfg.BufferPages = o.sc.Buffer
	cfg.Workload = cobench.Workload{Loops: o.sc.Loops, Samples: o.sc.Samples, Seed: querySeed(o.seed)}
	cfg.Workers = workers
	cfg.Backend = backend
	return cfg
}

// tableRound is one build of every section on a fresh suite.
type tableRound struct {
	text string
	wall time.Duration
}

// buildTables builds and renders every section on a fresh suite, the way
// cotables prints them, with a span around each Section.Build.
func buildTables(cfg experiments.Config, tr *tracer, req int64) (tableRound, error) {
	secs := experiments.Sections()
	if len(secs) != len(sectionNames) {
		return tableRound{}, fmt.Errorf("experiments has %d sections, the benchmark names %d", len(secs), len(sectionNames))
	}
	start := time.Now()
	t0 := tr.now()
	suite := experiments.New(cfg)
	defer suite.Close()
	var round tableRound
	var b strings.Builder
	for i, sec := range secs {
		ts := tr.now()
		tables, err := sec.Build(suite)
		tr.record("experiments."+sectionNames[i], req, ts)
		if err != nil {
			return tableRound{}, fmt.Errorf("section %s: %w", sectionNames[i], err)
		}
		for _, t := range tables {
			b.WriteString(t.Text())
			b.WriteString("\n")
		}
	}
	round.text = b.String()
	round.wall = time.Since(start)
	tr.record("tables.round", req, t0)
	return round, nil
}

// runTables measures the full paper table set on the cow backend with one
// worker per CPU, and checks every rendering against the serial
// mem-backend rendering of the same seed.
func runTables(o *options, tr *tracer, res *result) error {
	cfg := tablesConfig(o, clients(), "cow")

	// Set-up: the workload's input is the seeded extension; generate it
	// (the suite regenerates it inside its first section) several times.
	var setups []float64
	for i := 0; i < o.sc.SetupReps; i++ {
		start := time.Now()
		if err := tr.do("cobench.generate", 0, func() error {
			_, err := cobench.Generate(cfg.Gen)
			return err
		}); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.endToEnd["setup_s"] = metric{median(setups), "s"}
	res.notef("setup_s: median of %d set-ups (seeded generation, N=%d)", len(setups), o.sc.N)
	// Warm-up round: fills the heap and page cache; checked, not timed.
	warm, err := buildTables(cfg, nil, 0)
	if err != nil {
		return err
	}
	rounds := []tableRound{warm}

	// Each round starts from a collected heap, as a fresh cotables
	// process would; the collection is outside the round's time. The
	// resident-set peak is taken per round.
	rss := startRSS()
	var peaks []float64
	measure := func(d float64, tr *tracer, reqBase int64) ([]tableRound, error) {
		var out []tableRound
		end := deadline(d)
		for i := int64(0); len(out) == 0 || time.Now().Before(end); i++ {
			runtime.GC()
			rss.lap()
			r, err := buildTables(cfg, tr, reqBase+i)
			peaks = append(peaks, rss.lap())
			res.attempted++
			if err != nil {
				res.failed++
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}

	var measured []tableRound
	if !o.trace {
		if measured, err = measure(o.seconds, nil, 0); err != nil {
			return err
		}
	} else {
		// Traced run: an untraced half and a traced half; their ratio is
		// the tracing overhead.
		plain, err := measure(o.seconds/2, nil, 0)
		if err != nil {
			return err
		}
		traced, err := measure(o.seconds/2, tr, 1)
		if err != nil {
			return err
		}
		measured = plain
		res.layers["trace.overhead_frac"] = metric{medianWall(traced)/medianWall(plain) - 1, "ratio"}
		rounds = append(rounds, traced...)
	}
	rounds = append(rounds, measured...)
	rss.peakMiB()

	// The tables workload's operation is one full table set.
	var walls []float64
	var busy float64
	for _, r := range measured {
		walls = append(walls, float64(r.wall)/float64(time.Millisecond))
		busy += r.wall.Seconds()
	}
	tablesS := medianWall(measured)
	if !o.trace {
		res.endToEnd["ops_per_s"] = metric{float64(len(measured)) / busy, "op/s"}
		res.endToEnd["p50_ms"] = metric{median(walls), "ms"}
		res.endToEnd["p99_ms"] = metric{quantile(walls, 0.99), "ms"}
		res.endToEnd["peak_rss_mb"] = metric{median(peaks), "MiB"}
	}
	res.notef("op = one build of all %d sections; n=%d rounds (supports %s; p99_ms is the slowest round)", len(sectionNames), len(walls), supportedTail(len(walls)))
	res.notef("tables_s %.6g s (median wall time to build every section)", tablesS)

	// Correctness: byte-identical to the serial mem-backend rendering.
	ref, err := buildTables(tablesConfig(o, 1, "mem"), nil, 0)
	if err != nil {
		return fmt.Errorf("reference rendering: %w", err)
	}
	for i, r := range rounds {
		if r.text != ref.text {
			res.failed++
			res.failf("tables round %d differs from the serial mem-backend rendering", i)
		}
	}
	res.notef("check: %d renderings byte-identical to the serial mem rendering (%d bytes)", len(rounds), len(ref.text))

	if o.trace {
		res.layers["tables_s"] = metric{tablesS, "s"}
		return tablesLayers(o, tr, res)
	}
	return nil
}

func medianWall(rs []tableRound) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.wall.Seconds())
	}
	return median(xs)
}
