package main

import (
	"fmt"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/xrand"
	"complexobj/nf2"
)

// nf2Rung times the station codec per tuple — Encode, Decode and
// DecodeAttr of the platforms relation (the call DASDBS-NSM navigation
// makes) — over the whole extension, median of five passes, checking
// that every tuple round-trips. It returns the encoded user bytes.
func nf2Rung(tr *tracer, res *result, stations []*cobench.Station) (int64, error) {
	tt := cobench.StationType
	tuples := make([]nf2.Tuple, len(stations))
	for i, s := range stations {
		tuples[i] = s.Tuple()
	}
	bufs := make([][]byte, len(stations))
	// pass times one batch over every tuple inside a span, in ns per tuple.
	pass := func(name string, fn func() error) (float64, error) {
		start := time.Now()
		ts := tr.now()
		err := fn()
		tr.record(name, 0, ts)
		return float64(time.Since(start)) / float64(len(stations)), err
	}
	var enc, dec, attr []float64
	for i := 0; i < 5; i++ {
		d, err := pass("nf2.encode", func() (err error) {
			for j, t := range tuples {
				if bufs[j], err = tt.Encode(t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		enc = append(enc, d)
		d, err = pass("nf2.decode", func() error {
			for j, b := range bufs {
				t, err := tt.Decode(b)
				if err != nil {
					return err
				}
				if i == 0 && !tt.Equal(t, tuples[j]) {
					return fmt.Errorf("nf2: station %d does not round-trip", j)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		dec = append(dec, d)
		d, err = pass("nf2.decode_attr", func() error {
			for _, b := range bufs {
				if _, err := tt.DecodeAttr(b, cobench.StPlatforms); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		attr = append(attr, d)
	}
	var user int64
	for _, b := range bufs {
		user += int64(len(b))
	}
	res.layers["nf2.encode_ns"] = metric{median(enc), "ns"}
	res.layers["nf2.decode_ns"] = metric{median(dec), "ns"}
	res.layers["nf2.decode_attr_ns"] = metric{median(attr), "ns"}
	return user, nil
}

// storeRung replays the call sequences of queries 1a, 2b and 3b through
// the facade DB over a copy-on-write view of each model's base, with a
// span around every fetch, navigate, read-root and update call. The
// replay's summed counters must equal DB.Run's for the same cells.
func storeRung(o *options, tr *tracer, res *result, stations []*cobench.Station) error {
	w := paperWorkload(o)
	opts := complexobj.Options{BufferPages: o.sc.Buffer}
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.Open(k, opts)
		if err != nil {
			return err
		}
		if err := db.Load(stations); err != nil {
			db.Close()
			return err
		}
		base, err := db.Freeze()
		db.Close()
		if err != nil {
			return err
		}
		err = replayModel(tr, res, base, k, w, opts)
		base.Close()
		if err != nil {
			return fmt.Errorf("store rung %s: %w", k, err)
		}
	}
	return nil
}

func replayModel(tr *tracer, res *result, base *complexobj.Base, k complexobj.ModelKind, w cobench.Workload, opts complexobj.Options) error {
	m := shortModel[k]
	span := func(op string, fn func() error) error { return tr.do("store."+m+"."+op, 0, fn) }
	queries := []cobench.Query{cobench.Q2b, cobench.Q3b}
	if k != complexobj.NSM {
		queries = append([]cobench.Query{cobench.Q1a}, queries...)
	}
	for _, q := range queries {
		db, err := base.Open(opts)
		if err != nil {
			return err
		}
		got, err := replay(db, q, w, span)
		db.Close()
		if err != nil {
			return err
		}
		ref, err := base.Open(opts)
		if err != nil {
			return err
		}
		want, err := ref.Run(q, w)
		ref.Close()
		if err != nil {
			return err
		}
		res.attempted++
		if got != want.Raw {
			res.failed++
			res.failf("store rung %s %s: replayed counters %+v, DB.Run %+v", k, q, got, want.Raw)
		}
	}
	st := tr.stats()
	for _, op := range []string{"fetch", "navigate", "readroot", "update"} {
		if s, ok := st["store."+m+"."+op]; ok {
			res.layers["store."+m+"."+op+"_us"] = metric{s.meanNs() / 1e3, "us"}
		}
	}
	return nil
}

// replay makes query q's call sequence the way the workload Runner
// does — same object selections, same cold-cache points — and returns
// the summed counters.
func replay(db *complexobj.DB, q cobench.Query, w cobench.Workload, span func(string, func() error) error) (complexobj.Stats, error) {
	n := db.NumObjects()
	if err := db.ColdCache(); err != nil {
		return complexobj.Stats{}, err
	}
	db.ResetStats()
	switch q {
	case cobench.Q1a:
		k := w.Samples
		if k <= 0 || k > n {
			k = n
		}
		for _, i := range xrand.New(xrand.Mix(w.Seed, uint64(q))).Perm(n)[:k] {
			if err := span("fetch", func() error { _, err := db.FetchByAddress(i); return err }); err != nil {
				return complexobj.Stats{}, err
			}
			if err := db.ColdCache(); err != nil {
				return complexobj.Stats{}, err
			}
		}
	default:
		update := q.Updates()
		loops := w.Loops
		if loops <= 0 {
			loops = cobench.LoopsFor(n)
		}
		rng := xrand.New(xrand.Mix(w.Seed, uint64(q)+100))
		for l := 0; l < loops; l++ {
			if err := replayLoop(db, rng.Intn(n), l, update, span); err != nil {
				return complexobj.Stats{}, err
			}
		}
		if update {
			if err := db.Flush(); err != nil {
				return complexobj.Stats{}, err
			}
		}
	}
	return db.Stats(), nil
}

// replayLoop is one navigation loop: the root, its children, the root
// records of the grand-children, and (update) their batch update.
func replayLoop(db *complexobj.DB, root, stamp int, update bool, span func(string, func() error) error) error {
	var children, grand []int32
	if err := span("navigate", func() (err error) { _, children, err = db.Navigate(root); return err }); err != nil {
		return err
	}
	for _, c := range children {
		var kids []int32
		if err := span("navigate", func() (err error) { _, kids, err = db.Navigate(int(c)); return err }); err != nil {
			return err
		}
		grand = append(grand, kids...)
	}
	for _, g := range grand {
		if err := span("readroot", func() error { _, err := db.ReadRoot(int(g)); return err }); err != nil {
			return err
		}
	}
	if !update || len(grand) == 0 {
		return nil
	}
	return span("update", func() error {
		return db.UpdateRoots(grand, func(i int32, r *cobench.RootRecord) {
			r.Name = fmt.Sprintf("upd %d #%d", stamp, i)
		})
	})
}
