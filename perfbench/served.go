package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/server"
	"complexobj/internal/xrand"
)

func paperWorkload(o *options) cobench.Workload {
	return cobench.Workload{Loops: o.sc.Loops, Samples: o.sc.Samples, Seed: querySeed(o.seed)}
}

// runServeMix: one read-only server over the paper-scale snapshot, the
// 35-cell (model, query) mix at paper parameters.
func runServeMix(o *options, tr *tracer, res *result) error {
	return runServed(o, tr, res, oneServer, mixCells(cobench.AllQueries(), paperWorkload(o), querySeeds(o.seed, o.sc.MixSeeds), false))
}

// runServePoint: a small snapshot split over two backends behind a
// router, short requests (1a, 2a, 2b, 3a with few samples and loops).
func runServePoint(o *options, tr *tracer, res *result) error {
	w := cobench.Workload{Loops: o.sc.PointLoops, Samples: o.sc.PointSamples}
	queries := []cobench.Query{cobench.Q1a, cobench.Q2a, cobench.Q2b, cobench.Q3a}
	return runServed(o, tr, res, routed, mixCells(queries, w, querySeeds(o.seed, o.sc.PointSeeds), false))
}

// runCommit: the serve-mix cells against a durable server, every 3a/3b
// request committing its mutations (fsync before acknowledgment).
func runCommit(o *options, tr *tracer, res *result) error {
	return runServed(o, tr, res, durable, mixCells(cobench.AllQueries(), paperWorkload(o), querySeeds(o.seed, o.sc.MixSeeds), true))
}

// expect is the batch View.Run measurement of one cell.
type expect struct {
	supported bool
	raw       complexobj.Stats
}

// expectedCounters runs every cell once through the batch path —
// View.Run on a pristine view of the snapshot's base per cell, recycled
// through a one-view pool — for the served-counter check.
func expectedCounters(snap string, cells []cellSpec, buffer int) ([]expect, error) {
	pools := map[complexobj.ModelKind]*complexobj.ViewPool{}
	defer func() {
		for _, p := range pools {
			p.Close()
			p.Base().Close()
		}
	}()
	out := make([]expect, len(cells))
	for i, c := range cells {
		p, ok := pools[c.kind]
		if !ok {
			b, err := complexobj.OpenBase(snap, c.kind)
			if err != nil {
				return nil, err
			}
			if p, err = complexobj.NewViewPool(b, complexobj.Options{BufferPages: buffer}, 1); err != nil {
				b.Close()
				return nil, err
			}
			pools[c.kind] = p
		}
		v, err := p.Acquire()
		if err != nil {
			return nil, err
		}
		r, err := v.Run(c.q, c.w)
		v.Close()
		if err != nil {
			return nil, fmt.Errorf("batch %s %s: %w", c.kind, c.q, err)
		}
		out[i] = expect{r.Supported, r.Raw}
	}
	return out, nil
}

// servedRun is everything a served workload measured, for the metrics.
type servedRun struct {
	cells  []cellSpec
	exp    []expect
	plain  load // untraced measured phase
	traced load // traced half of a traced run
	// metrics are the servers' (and router's) /metrics samples at the
	// end of the run, summed over labels and processes.
	metrics map[string]float64
	tp      *topo
}

func runServed(o *options, tr *tracer, res *result, kind topoKind, cells []cellSpec) error {
	runDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	var sw *traceSwitch
	if o.trace {
		sw = &traceSwitch{}
	}

	// The set-up pass covers the cells of the first query seed.
	perSeed := 0
	for perSeed < len(cells) && cells[perSeed].w.Seed == cells[0].w.Seed {
		perSeed++
	}
	// Set up several times; the last deployment is the measured one.
	// all collects every response for the checks, final those of the
	// measured deployment.
	var setups []float64
	var tp *topo
	var all, final []reqRecord
	for rep := 0; rep < o.sc.SetupReps; rep++ {
		if tp != nil {
			if err := tp.close(); err != nil {
				return err
			}
			os.RemoveAll(tp.dir)
			// Every set-up starts from the same heap: the last one's
			// garbage would otherwise land in this one's time.
			runtime.GC()
		}
		start := time.Now()
		if tp, err = setupTopo(o, kind, filepath.Join(runDir, "setup-"+strconv.Itoa(rep)), tr, sw); err != nil {
			return err
		}
		c := newClient(tp.front, cells, clients())
		final = c.warmUp(perSeed)
		c.close()
		setups = append(setups, time.Since(start).Seconds())
		all = append(all, final...)
	}
	defer tp.close()
	res.endToEnd["setup_s"] = metric{median(setups), "s"}
	res.notef("setup_s: median of %d set-ups (generate, load, snapshot write, split, server/router start, one pass over the cells); then a %.3g s closed-loop warm-up", len(setups), min(2, o.seconds/5))

	run := &servedRun{cells: cells, tp: tp}
	c := newClient(tp.front, cells, clients())
	defer c.close()
	ord := &order{seed: xrand.Mix(o.seed, 2), n: len(cells)}
	// A short closed loop with the measuring client warms its
	// connections, the view pools and the heap; its responses are
	// checked like every other.
	wl := c.closedLoop(ord, clients(), min(2, o.seconds/5), nil)
	runtime.GC()
	rss := startRSS()
	if !o.trace {
		run.plain = c.closedLoop(ord, clients(), o.seconds, nil)
	} else {
		run.plain = c.closedLoop(ord, clients(), o.seconds/2, nil)
		sw.on.Store(tr)
		run.traced = c.closedLoop(ord, clients(), o.seconds/2, tr)
		sw.on.Store(nil)
	}
	peak := rss.peakMiB()
	measured := append(append(wl.recs, run.plain.recs...), run.traced.recs...)
	all, final = append(all, measured...), append(final, measured...)

	// Correctness: every response against the batch counters of its cell.
	if run.exp, err = expectedCounters(tp.snapshot, cells, o.sc.Buffer); err != nil {
		return err
	}
	for _, r := range all {
		res.attempted++
		if problem := checkRecord(r, cells, run.exp); problem != "" {
			res.failed++
			if res.failed <= 5 {
				res.failf("%s", problem)
			}
		}
	}
	if err := checkStats(tp.front, final, res); err != nil {
		return err
	}
	if run.metrics, err = scrapeAll(tp); err != nil {
		return err
	}
	if kind == durable {
		if err := checkDurable(tp, final, res); err != nil {
			return err
		}
	}

	reads, commits := latencies(run.plain.recs, cells)
	res.notef("closed loop: %d clients, %d requests in %.3f s (%d reads: supports %s; %d commits: supports %s)",
		clients(), len(run.plain.recs), run.plain.window.Seconds(), len(reads), supportedTail(len(reads)), len(commits), supportedTail(len(commits)))
	if kind == durable {
		res.notef("commit_p50_ms %.6g ms, commit_p99_ms %.6g ms (client-observed commit=1 requests)", median(commits), quantile(commits, 0.99))
	}
	if !o.trace {
		res.endToEnd["ops_per_s"] = metric{float64(len(run.plain.recs)) / run.plain.window.Seconds(), "op/s"}
		res.endToEnd["p50_ms"] = metric{median(reads), "ms"}
		res.endToEnd["p99_ms"] = metric{quantile(reads, 0.99), "ms"}
		res.endToEnd["peak_rss_mb"] = metric{peak, "MiB"}
		return nil
	}
	return servedLayers(o, tr, res, run)
}

// checkRecord returns why a response is wrong ("" when it is right).
func checkRecord(r reqRecord, cells []cellSpec, exp []expect) string {
	c, e := cells[r.cell], exp[r.cell]
	switch {
	case r.status != http.StatusOK:
		return fmt.Sprintf("%s %s: status %d", c.kind, c.q, r.status)
	case r.supported != e.supported || r.raw.Stats() != e.raw:
		return fmt.Sprintf("%s %s: served counters %+v differ from batch View.Run %+v", c.kind, c.q, r.raw.Stats(), e.raw)
	case r.committed != c.commit:
		return fmt.Sprintf("%s %s: committed=%v, requested %v", c.kind, c.q, r.committed, c.commit)
	}
	return ""
}

// latencies splits the client-observed latencies (ms) of successful
// requests into reads and commits.
func latencies(recs []reqRecord, cells []cellSpec) (reads, commits []float64) {
	for _, r := range recs {
		if r.status != http.StatusOK {
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		if cells[r.cell].commit {
			commits = append(commits, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	return reads, commits
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkStats: /stats must flag no divergent cell and must have
// aggregated exactly the successful requests of the deployment.
func checkStats(front string, recs []reqRecord, res *result) error {
	var st server.StatsResponse
	if err := getJSON(front+"/stats", &st); err != nil {
		return err
	}
	var ok, counted int64
	for _, r := range recs {
		if r.status == http.StatusOK {
			ok++
		}
	}
	for _, c := range st.Cells {
		counted += c.Count
		if c.Divergent {
			res.failf("/stats: cell %s %s is divergent", c.Model, c.Query)
		}
	}
	if counted != ok || st.DroppedCells != 0 {
		res.failf("/stats aggregated %d runs (%d dropped), the clients saw %d", counted, st.DroppedCells, ok)
	}
	return nil
}

// checkDurable: the server acknowledged exactly the commits the clients
// saw, and a restart over the same WAL directory recovers every one.
func checkDurable(tp *topo, recs []reqRecord, res *result) error {
	var acked int64
	var lastSeq uint64
	for _, r := range recs {
		if r.committed {
			acked++
			lastSeq = max(lastSeq, r.seq)
		}
	}
	var info server.InfoResponse
	if err := getJSON(tp.front+"/info", &info); err != nil {
		return err
	}
	if info.Durability == nil || info.Durability.Commits != acked {
		res.failf("server counts %+v commits, the clients saw %d acknowledged", info.Durability, acked)
	}
	if err := tp.close(); err != nil {
		return err
	}
	srv, err := server.New(tp.cfgs[0])
	if err != nil {
		return fmt.Errorf("restart over the WAL: %w", err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
	var after server.InfoResponse
	if err := json.NewDecoder(rec.Body).Decode(&after); err != nil {
		return err
	}
	if after.Durability == nil || after.Durability.LastSeq != lastSeq {
		res.failf("restart recovered %+v, the last acknowledged commit is seq %d", after.Durability, lastSeq)
	}
	res.notef("check: %d acknowledged commits, all recovered after a restart (last seq %d)", acked, lastSeq)
	return nil
}

// scrapeAll sums every /metrics sample by name over the deployment's
// servers and router.
func scrapeAll(tp *topo) (map[string]float64, error) {
	out := map[string]float64{}
	urls := []string{}
	for _, e := range tp.eps {
		urls = append(urls, e.url)
	}
	if tp.rtEp != nil {
		urls = append(urls, tp.rtEp.url)
	}
	for _, u := range urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			name, rest := line, ""
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name, rest = line[:i], line[i:]
			}
			f := strings.Fields(rest[strings.LastIndex(rest, "}")+1:])
			if len(f) == 0 {
				continue
			}
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				out[name] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type memSnapshot struct {
	TotalAlloc uint64
	NumGC      uint32
}

func memStats() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{ms.TotalAlloc, ms.NumGC}
}
