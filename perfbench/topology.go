package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/router"
	"complexobj/internal/server"
	"complexobj/internal/shard"
	"complexobj/internal/xrand"
)

// topoKind selects the serving topology a workload runs against.
type topoKind int

const (
	// oneServer: one read-only server (serve-mix).
	oneServer topoKind = iota
	// routed: two shard backends behind a router (serve-point).
	routed
	// durable: one server with a write-ahead log (commit).
	durable
)

// cellSpec is one request shape of a mix: a (model, query, workload)
// measurement cell, optionally committing its mutations.
type cellSpec struct {
	kind   complexobj.ModelKind
	q      cobench.Query
	w      cobench.Workload
	commit bool
	path   string // "/run?..." without the trace request id
}

// mixCells lists every (query seed, model, query) cell, query seed
// outermost: the first len(models)×len(queries) cells use the first seed.
// Drawing each request's query seed from a pool averages a run over many
// random object selections instead of pinning it to one.
func mixCells(queries []cobench.Query, w cobench.Workload, qseeds []uint64, commitUpdates bool) []cellSpec {
	var cells []cellSpec
	for _, qs := range qseeds {
		w.Seed = qs
		for _, k := range complexobj.AllModels() {
			for _, q := range queries {
				spec := server.RunSpecFor(k, q, w)
				c := cellSpec{kind: k, q: q, w: w, commit: commitUpdates && q.Updates()}
				if c.commit {
					spec.Commit = "1"
				}
				c.path = "/run?" + spec.Values().Encode()
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// querySeeds derives a pool of n query seeds from the benchmark seed.
func querySeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = xrand.Mix(querySeed(seed), uint64(i))
	}
	return out
}

// endpoint is one loopback HTTP listener serving a handler in-process.
type endpoint struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return e, nil
}

// close stops the listener and waits for its serve loop to exit.
func (e *endpoint) close() {
	e.hs.Close()
	<-e.done
}

// traceSwitch lets a traced run time its first half untraced: the
// handler wrappers are installed once and record only while on.
type traceSwitch struct{ on atomic.Pointer[tracer] }

// wrap records a span named name around every request h serves, keyed
// by the request id the client put in the rid parameter.
func (sw *traceSwitch) wrap(name string, h http.Handler) http.Handler {
	if sw == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := sw.on.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		rid, _ := strconv.ParseInt(r.URL.Query().Get("rid"), 10, 64)
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.record(name, rid, start)
	})
}

// topo is one set-up serving deployment.
type topo struct {
	kind     topoKind
	dir      string
	snapshot string
	stations []*cobench.Station
	cfgs     []server.Config
	srvs     []*server.Server
	eps      []*endpoint
	rt       *router.Router
	rtEp     *endpoint
	front    string
}

// close stops the listeners, the router and the servers.
func (tp *topo) close() error {
	if tp.rtEp != nil {
		tp.rtEp.close()
		tp.rtEp = nil
	}
	if tp.rt != nil {
		tp.rt.Close()
		tp.rt = nil
	}
	for _, e := range tp.eps {
		e.close()
	}
	tp.eps = nil
	var first error
	for _, s := range tp.srvs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	tp.srvs = nil
	return first
}

// setupTopo generates the seeded extension, loads it into every storage
// model, writes the .codb snapshot and starts the topology's servers (and
// router) on loopback listeners.
func setupTopo(o *options, kind topoKind, dir string, tr *tracer, sw *traceSwitch) (*topo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := o.sc.N
	if kind == routed {
		n = o.sc.PointN
	}
	gen := genConfig(n, o.seed)
	tp := &topo{kind: kind, dir: dir, snapshot: filepath.Join(dir, "bench.codb")}
	if err := tr.do("cobench.generate", 0, func() (err error) {
		tp.stations, err = cobench.Generate(gen)
		return err
	}); err != nil {
		return nil, err
	}
	var dbs []*complexobj.DB
	defer func() {
		for _, db := range dbs {
			db.Close()
		}
	}()
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.Open(k, complexobj.Options{BufferPages: o.sc.Buffer})
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
		if err := tr.do("store.load", 0, func() error { return db.Load(tp.stations) }); err != nil {
			return nil, fmt.Errorf("load %s: %w", k, err)
		}
	}
	if err := tr.do("snapshot.write", 0, func() error {
		return complexobj.WriteSnapshot(tp.snapshot, gen, dbs...)
	}); err != nil {
		return nil, err
	}

	base := server.Config{BufferPages: o.sc.Buffer, Workload: cobench.Workload{Loops: o.sc.Loops, Samples: o.sc.Samples, Seed: querySeed(o.seed)}}
	switch kind {
	case routed:
		var mapPath string
		var shards []int
		if err := tr.do("shard.split", 0, func() (err error) {
			mapPath, shards, err = splitSnapshot(tp.snapshot, 2)
			return err
		}); err != nil {
			return nil, err
		}
		for _, id := range shards {
			cfg := base
			cfg.ShardMap, cfg.Shards = mapPath, []int{id}
			tp.cfgs = append(tp.cfgs, cfg)
		}
	case durable:
		cfg := base
		cfg.Snapshot, cfg.WALDir, cfg.CheckpointBytes = tp.snapshot, filepath.Join(dir, "wal"), o.sc.CheckpointBytes
		tp.cfgs = append(tp.cfgs, cfg)
	default:
		cfg := base
		cfg.Snapshot = tp.snapshot
		tp.cfgs = append(tp.cfgs, cfg)
	}
	var urls []string
	for _, cfg := range tp.cfgs {
		var srv *server.Server
		if err := tr.do("snapshot.open", 0, func() (err error) {
			srv, err = server.New(cfg)
			return err
		}); err != nil {
			tp.close()
			return nil, err
		}
		tp.srvs = append(tp.srvs, srv)
		ep, err := listen(sw.wrap("server.handler", srv.Handler()))
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.eps = append(tp.eps, ep)
		urls = append(urls, ep.url)
	}
	tp.front = urls[0]
	if kind == routed {
		rt, err := router.New(router.Config{MapPath: tp.cfgs[0].ShardMap, Backends: urls})
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.rt = rt
		if tp.rtEp, err = listen(sw.wrap("router.handler", rt.Handler())); err != nil {
			tp.close()
			return nil, err
		}
		tp.front = tp.rtEp.url
	}
	return tp, nil
}

// splitSnapshot partitions the snapshot's models model-granularly across
// n range shards, extracts each shard's .codb segment and writes the
// shard map (what cogen -split does). It returns the map path and the
// shard IDs that own models.
func splitSnapshot(snap string, n int) (string, []int, error) {
	var names []string
	byName := map[string]complexobj.ModelKind{}
	for _, k := range complexobj.AllModels() {
		names = append(names, k.String())
		byName[k.String()] = k
	}
	m, err := shard.Partition(names, n, shard.StrategyRange)
	if err != nil {
		return "", nil, err
	}
	var ids []int
	for i := range m.Shards {
		s := &m.Shards[i]
		if len(s.Models) == 0 {
			continue
		}
		var kinds []complexobj.ModelKind
		for _, name := range s.Models {
			kinds = append(kinds, byName[name])
		}
		seg := shard.SegmentName(snap, s.ID)
		if err := complexobj.ExtractSnapshot(snap, seg, kinds); err != nil {
			return "", nil, err
		}
		s.Segment = filepath.Base(seg)
		ids = append(ids, s.ID)
	}
	mapPath := shard.MapName(snap)
	return mapPath, ids, m.Write(mapPath)
}

// reqRecord is one completed (or failed) request as the client saw it.
type reqRecord struct {
	cell      int
	rid       int64
	lat       time.Duration
	status    int // 0: transport or decode error
	supported bool
	raw       server.Counters
	elapsedUS int64
	commitUS  int64
	committed bool
	seq       uint64
}

// client sends /run requests to a front URL over a pooled transport.
type client struct {
	front string
	cells []cellSpec
	hc    *http.Client
	rid   atomic.Int64
}

func newClient(front string, cells []cellSpec, conns int) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	return &client{front: front, cells: cells, hc: &http.Client{Timeout: 2 * time.Minute, Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request for cell i. With tr non-nil the request carries
// a request id and the client span is recorded.
func (c *client) do(i int, tr *tracer) reqRecord {
	rec := reqRecord{cell: i}
	url := c.front + c.cells[i].path
	if tr != nil {
		rec.rid = c.rid.Add(1)
		url += "&rid=" + strconv.FormatInt(rec.rid, 10)
	}
	start := time.Now()
	ts := tr.now()
	resp, err := c.hc.Get(url)
	if err == nil {
		rec.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			var rr server.RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				rec.status = 0
			}
			rec.supported, rec.raw, rec.elapsedUS = rr.Supported, rr.Raw, rr.ElapsedUS
			rec.committed, rec.commitUS, rec.seq = rr.Committed, rr.CommitUS, rr.CommitSeq
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rec.lat = time.Since(start)
	tr.record("client.request", rec.rid, ts)
	return rec
}

// warmUp sends the first n cells once each, in order.
func (c *client) warmUp(n int) []reqRecord {
	var recs []reqRecord
	for i := range n {
		recs = append(recs, c.do(i, nil))
	}
	return recs
}

// order hands out cell indices in seeded order: each round is a fresh
// seeded permutation of the cells, so every cell runs equally often.
type order struct {
	mu    sync.Mutex
	seed  uint64
	n     int
	round uint64
	perm  []int
}

func (o *order) next() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.perm) == 0 {
		o.perm = xrand.New(xrand.Mix(o.seed, 1000+o.round)).Perm(o.n)
		o.round++
	}
	i := o.perm[0]
	o.perm = o.perm[1:]
	return i
}

// load is one closed-loop measured phase.
type load struct {
	recs   []reqRecord
	window time.Duration
	// allocBytes and gcs are the process's allocation and GC deltas.
	allocBytes uint64
	gcs        uint32
}

// closedLoop runs workers closed-loop clients for d seconds: each sends
// its next request when the previous one answered. Requests started
// before the deadline complete and count.
func (c *client) closedLoop(ord *order, workers int, d float64, tr *tracer) load {
	before := memStats()
	start := time.Now()
	end := deadline(d)
	per := make([][]reqRecord, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				per[w] = append(per[w], c.do(ord.next(), tr))
			}
		}(w)
	}
	wg.Wait()
	l := load{window: time.Since(start)}
	after := memStats()
	l.allocBytes, l.gcs = after.TotalAlloc-before.TotalAlloc, after.NumGC-before.NumGC
	for _, p := range per {
		l.recs = append(l.recs, p...)
	}
	return l
}
