package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"

	"complexobj"
	"complexobj/cobench"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// shortModel names the storage models in metric names.
var shortModel = map[complexobj.ModelKind]string{
	complexobj.DSM: "dsm", complexobj.DASDBSDSM: "ddsm", complexobj.NSM: "nsm",
	complexobj.NSMIndex: "nsmx", complexobj.DASDBSNSM: "dnsm",
}

// layerMetrics lists every per-layer metric in a fixed order. A traced
// run reports each one; a layer a workload does not run reports 0.
func layerMetrics() []layerMetric {
	var ms []layerMetric
	add := func(name, unit, better string) { ms = append(ms, layerMetric{name, unit, better}) }
	for _, s := range sectionNames {
		add("experiments."+s+"_s", "s", "lower")
	}
	add("tables_s", "s", "lower")
	add("cobench.generate_s", "s", "lower")
	add("nf2.encode_ns", "ns", "lower")
	add("nf2.decode_ns", "ns", "lower")
	add("nf2.decode_attr_ns", "ns", "lower")
	add("snapshot.write_s", "s", "lower")
	add("snapshot.open_s", "s", "lower")
	add("snapshot.bytes_per_user_byte", "B/B", "lower")
	add("store.load_s", "s", "lower")
	for _, k := range complexobj.AllModels() {
		m := shortModel[k]
		if k != complexobj.NSM {
			add("store."+m+".fetch_us", "us", "lower")
		}
		add("store."+m+".navigate_us", "us", "lower")
		add("store."+m+".readroot_us", "us", "lower")
		add("store."+m+".update_us", "us", "lower")
	}
	for _, k := range complexobj.AllModels() {
		for _, q := range cobench.AllQueries() {
			if k == complexobj.NSM && q == cobench.Q1a {
				continue // unsupported: NSM has no object addresses
			}
			add("cell."+shortModel[k]+"."+q.String()+"_ms", "ms", "lower")
		}
	}
	add("disk.pages_read", "count/req", "lower")
	add("disk.pages_written", "count/req", "lower")
	add("disk.read_calls", "count/req", "lower")
	add("disk.write_calls", "count/req", "lower")
	add("buffer.fixes", "count/req", "lower")
	add("buffer.hit_ratio", "ratio", "higher")
	add("server.handler_us", "us", "lower")
	add("server.overhead_us", "us", "lower")
	add("server.queue_wait_us", "us", "lower")
	add("server.view_reuse_ratio", "ratio", "higher")
	add("server.views_stale", "count", "lower")
	add("http.overhead_us", "us", "lower")
	add("router.hop_us", "us", "lower")
	add("router.dials_per_req", "ratio", "lower")
	add("router.retries", "count", "lower")
	add("wal.commit_us", "us", "lower")
	add("wal.syncs_per_commit", "ratio", "lower")
	add("wal.write_amp", "ratio", "lower")
	add("wal.bytes_per_commit", "B", "lower")
	add("wal.checkpoints", "count", "lower")
	add("commit_p50_ms", "ms", "lower")
	add("commit_p99_ms", "ms", "lower")
	add("runtime.alloc_bytes_per_op", "B/op", "lower")
	add("runtime.gc_count", "count", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return ms
}

// completeLayers sets every listed metric the workload did not measure to
// 0 (the layer is not on its path) and rejects any unlisted one.
func completeLayers(res *result) error {
	listed := map[string]bool{}
	var off []string
	for _, m := range layerMetrics() {
		listed[m.name] = true
		if _, ok := res.layers[m.name]; !ok {
			res.layers[m.name] = metric{0, m.unit}
			off = append(off, m.name)
		}
	}
	for name := range res.layers {
		if !listed[name] {
			return fmt.Errorf("per-layer metric %q is not listed", name)
		}
	}
	if len(off) > 0 {
		res.notef("0 = layer not on this workload's path: %s", strings.Join(off, " "))
	}
	return nil
}

// setupLayers derives the set-up layers' metrics from the set-up spans.
func setupLayers(st map[string]spanStats, res *result, reps int) {
	res.layers["cobench.generate_s"] = metric{st["cobench.generate"].medianNs() / 1e9, "s"}
	if s, ok := st["store.load"]; ok {
		res.layers["store.load_s"] = metric{s.Total / 1e9 / float64(reps), "s"}
	}
	if s, ok := st["snapshot.write"]; ok {
		res.layers["snapshot.write_s"] = metric{s.medianNs() / 1e9, "s"}
	}
	if s, ok := st["snapshot.open"]; ok {
		res.layers["snapshot.open_s"] = metric{s.Total / 1e9 / float64(reps), "s"}
	}
}

// tablesLayers derives the tables workload's per-layer metrics: the
// per-section spans, then the codec and store rungs over the same
// extension the suite measures.
func tablesLayers(o *options, tr *tracer, res *result) error {
	stations, err := cobench.Generate(genConfig(o.sc.N, o.seed))
	if err != nil {
		return err
	}
	if err := rungs(o, tr, res, stations, ""); err != nil {
		return err
	}
	st := tr.stats()
	for _, s := range sectionNames {
		res.layers["experiments."+s+"_s"] = metric{st["experiments."+s].medianNs() / 1e9, "s"}
	}
	setupLayers(st, res, o.sc.SetupReps)
	return completeLayers(res)
}

// servedLayers derives a served workload's per-layer metrics from the
// traced half's spans, the responses, the /metrics scrape and the rungs.
func servedLayers(o *options, tr *tracer, res *result, run *servedRun) error {
	plain, traced := run.plain, run.traced
	if len(traced.recs) > 0 && len(plain.recs) > 0 {
		rate := func(l load) float64 { return float64(len(l.recs)) / l.window.Seconds() }
		res.layers["trace.overhead_frac"] = metric{rate(plain)/rate(traced) - 1, "ratio"}
	}
	n := float64(len(plain.recs))
	res.layers["runtime.alloc_bytes_per_op"] = metric{float64(plain.allocBytes) / nz(n), "B/op"}
	res.layers["runtime.gc_count"] = metric{float64(plain.gcs), "count"}

	// Paper counters, per request of one pass over the mix (every cell
	// once): invariant for a seed.
	var sum complexobj.Stats
	for _, e := range run.exp {
		sum.PagesRead += e.raw.PagesRead
		sum.PagesWritten += e.raw.PagesWritten
		sum.ReadCalls += e.raw.ReadCalls
		sum.WriteCalls += e.raw.WriteCalls
		sum.BufferFixes += e.raw.BufferFixes
		sum.BufferHits += e.raw.BufferHits
	}
	cells := float64(len(run.cells))
	res.layers["disk.pages_read"] = metric{float64(sum.PagesRead) / cells, "count/req"}
	res.layers["disk.pages_written"] = metric{float64(sum.PagesWritten) / cells, "count/req"}
	res.layers["disk.read_calls"] = metric{float64(sum.ReadCalls) / cells, "count/req"}
	res.layers["disk.write_calls"] = metric{float64(sum.WriteCalls) / cells, "count/req"}
	res.layers["buffer.fixes"] = metric{float64(sum.BufferFixes) / cells, "count/req"}
	res.layers["buffer.hit_ratio"] = metric{float64(sum.BufferHits) / nz(float64(sum.BufferFixes)), "ratio"}

	// Runner time per cell (elapsedMicros less the commit), paper-
	// parameter mixes only.
	if run.tp.kind != routed {
		per := map[string][]float64{}
		for _, r := range plain.recs {
			c := run.cells[r.cell]
			if r.status == http.StatusOK && (c.kind != complexobj.NSM || c.q != cobench.Q1a) {
				name := "cell." + shortModel[c.kind] + "." + c.q.String() + "_ms"
				per[name] = append(per[name], float64(r.elapsedUS-r.commitUS)/1e3)
			}
		}
		for name, xs := range per {
			res.layers[name] = metric{median(xs), "ms"}
		}
	}

	// Spans of the traced half, matched to the responses by request id.
	st := tr.stats()
	handler := map[int64]float64{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "server.handler" {
			handler[s.Req] = float64(s.End - s.Start)
		}
	}
	tr.mu.Unlock()
	var over []float64
	for _, r := range traced.recs {
		if h, ok := handler[r.rid]; ok && r.status == http.StatusOK {
			over = append(over, h/1e3-float64(r.elapsedUS))
		}
	}
	res.layers["server.handler_us"] = metric{st["server.handler"].meanNs() / 1e3, "us"}
	res.layers["server.overhead_us"] = metric{mean(over), "us"}
	res.layers["http.overhead_us"] = metric{st["client.request"].selfNs() / 1e3, "us"}
	if run.tp.kind == routed {
		res.layers["router.hop_us"] = metric{st["router.handler"].selfNs() / 1e3, "us"}
	}

	// Server and router counters scraped from /metrics.
	m := run.metrics
	if c := m["complexobj_queue_wait_seconds_count"]; c > 0 {
		res.layers["server.queue_wait_us"] = metric{m["complexobj_queue_wait_seconds_sum"] / c * 1e6, "us"}
	}
	res.layers["server.view_reuse_ratio"] = metric{m["complexobj_viewpool_reused_total"] / nz(m["complexobj_viewpool_borrows_total"]), "ratio"}
	res.layers["server.views_stale"] = metric{m["complexobj_viewpool_stale_total"], "count"}
	if run.tp.kind == routed {
		res.layers["router.dials_per_req"] = metric{m["coshard_dials_total"] / nz(m["coshard_requests_total"]), "ratio"}
		res.layers["router.retries"] = metric{m["coshard_shard_retries_total"], "count"}
	}
	if run.tp.kind == durable {
		commits := m["complexobj_commits_total"]
		res.layers["wal.syncs_per_commit"] = metric{m["complexobj_wal_syncs_total"] / nz(commits), "ratio"}
		res.layers["wal.write_amp"] = metric{m["complexobj_wal_appended_bytes_total"] / nz(m["complexobj_wal_payload_bytes_total"]), "ratio"}
		res.layers["wal.bytes_per_commit"] = metric{m["complexobj_wal_appended_bytes_total"] / nz(commits), "B"}
		res.layers["wal.checkpoints"] = metric{m["complexobj_checkpoints_total"], "count"}
		var cus []float64
		for _, r := range plain.recs {
			if r.committed {
				cus = append(cus, float64(r.commitUS))
			}
		}
		res.layers["wal.commit_us"] = metric{mean(cus), "us"}
		_, commitLat := latencies(plain.recs, run.cells)
		res.layers["commit_p50_ms"] = metric{median(commitLat), "ms"}
		res.layers["commit_p99_ms"] = metric{quantile(commitLat, 0.99), "ms"}
	}

	setupLayers(st, res, o.sc.SetupReps)
	if err := rungs(o, tr, res, run.tp.stations, run.tp.snapshot); err != nil {
		return err
	}
	return completeLayers(res)
}

// rungs runs the codec rung over the stations and the store rung over a
// base of them (built from the stations when snap is empty), and records
// the snapshot's bytes per encoded user byte.
func rungs(o *options, tr *tracer, res *result, stations []*cobench.Station, snap string) error {
	userBytes, err := nf2Rung(tr, res, stations)
	if err != nil {
		return err
	}
	if snap != "" {
		fi, err := os.Stat(snap)
		if err != nil {
			return err
		}
		res.layers["snapshot.bytes_per_user_byte"] = metric{float64(fi.Size()) / float64(userBytes), "B/B"}
	}
	return storeRung(o, tr, res, stations)
}
