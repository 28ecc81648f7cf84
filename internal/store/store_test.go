package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"complexobj/cobench"
	"complexobj/nf2"
)

// testExtension returns a small deterministic benchmark extension.
func testExtension(t *testing.T, n int) []*cobench.Station {
	t.Helper()
	cfg := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stations
}

// loadModel builds and loads a model over a fresh engine.
func loadModel(t *testing.T, k Kind, stations []*cobench.Station) Model {
	t.Helper()
	m := mustNew(k, Options{BufferPages: 256})
	if err := m.Load(stations); err != nil {
		t.Fatalf("%s load: %v", k, err)
	}
	if err := m.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	m.Engine().ResetStats()
	return m
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		DSM: "DSM", DASDBSDSM: "DASDBS-DSM", NSM: "NSM",
		NSMIndex: "NSM+index", DASDBSNSM: "DASDBS-NSM",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if len(AllKinds()) != 5 {
		t.Errorf("AllKinds() = %v", AllKinds())
	}
}

func TestFetchByAddressAllModels(t *testing.T) {
	stations := testExtension(t, 60)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			for _, i := range []int{0, 7, 31, 59} {
				got, err := m.FetchByAddress(i)
				if k == NSM {
					if !errors.Is(err, ErrNoAddressAccess) {
						t.Fatalf("pure NSM FetchByAddress err = %v, want ErrNoAddressAccess", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("FetchByAddress(%d): %v", i, err)
				}
				if !got.Equal(stations[i]) {
					t.Fatalf("station %d mismatch", i)
				}
			}
		})
	}
}

func TestFetchByKeyAllModels(t *testing.T) {
	stations := testExtension(t, 60)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			for _, i := range []int{3, 42} {
				got, err := m.FetchByKey(cobench.KeyOf(i))
				if err != nil {
					t.Fatalf("FetchByKey: %v", err)
				}
				if !got.Equal(stations[i]) {
					t.Fatalf("station %d mismatch via key", i)
				}
			}
			if _, err := m.FetchByKey(999999); err == nil {
				t.Error("missing key accepted")
			}
		})
	}
}

// The direct models' value selection decodes only keys while scanning and
// the match in full: the answer is exactly the object fetched by address.
func TestDirectFetchByKeyMatchesFetchByAddress(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range []Kind{DSM, DASDBSDSM} {
		m := loadModel(t, k, stations)
		for i := range stations {
			byKey, err := m.FetchByKey(cobench.KeyOf(i))
			if err != nil {
				t.Fatalf("%s FetchByKey(%d): %v", k, i, err)
			}
			byAddr, err := m.FetchByAddress(i)
			if err != nil {
				t.Fatalf("%s FetchByAddress(%d): %v", k, i, err)
			}
			if !reflect.DeepEqual(byKey, byAddr) {
				t.Fatalf("%s station %d: FetchByKey and FetchByAddress differ", k, i)
			}
		}
	}
}

// A corrupt component of an object the selection does not match still
// fails the scan, as it did when every scanned object was decoded in full.
func TestDirectFetchByKeyFailsOnCorruptNonMatch(t *testing.T) {
	stations := testExtension(t, 40)
	victim := -1
	for i, s := range stations {
		if len(s.Seeings) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no station with sightseeings")
	}
	target := (victim + 1) % len(stations)
	for _, k := range []Kind{DSM, DASDBSDSM} {
		m := loadModel(t, k, stations)
		d := m.(*direct)
		comps, err := d.objs.ReadAll(d.addr[victim])
		if err != nil {
			t.Fatal(err)
		}
		idx := -1
		for ci, c := range comps {
			if c.Tag == TagSightseeing {
				idx = ci
				break
			}
		}
		// Claim a Description longer than its declared capacity.
		bad := bytes.Clone(comps[idx].Data)
		off := binary.BigEndian.Uint16(bad[2+2*cobench.SeDescription:])
		binary.BigEndian.PutUint16(bad[off:], cobench.StrSize+1)
		if _, err := d.objs.ChangeComponent(d.addr[victim], idx, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := m.FetchByKey(cobench.KeyOf(target)); !errors.Is(err, nf2.ErrCorrupt) {
			t.Errorf("%s FetchByKey over a corrupt non-matching object: err = %v, want nf2.ErrCorrupt", k, err)
		}
		if _, err := m.FetchByAddress(target); err != nil {
			t.Errorf("%s FetchByAddress of the intact target: %v", k, err)
		}
	}
}

func TestScanAllAllModels(t *testing.T) {
	stations := testExtension(t, 60)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			seen := 0
			err := m.ScanAll(func(i int, s *cobench.Station) error {
				if !s.Equal(stations[i]) {
					return fmt.Errorf("station %d mismatch in scan", i)
				}
				seen++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != len(stations) {
				t.Errorf("scan visited %d of %d", seen, len(stations))
			}
		})
	}
}

func TestNavigateAllModels(t *testing.T) {
	stations := testExtension(t, 60)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			for i, want := range stations {
				root, children, err := m.Navigate(i)
				if err != nil {
					t.Fatalf("Navigate(%d): %v", i, err)
				}
				if root != want.Root() {
					t.Fatalf("Navigate(%d) root mismatch", i)
				}
				wantKids := want.Children()
				if len(children) != len(wantKids) {
					t.Fatalf("Navigate(%d): %d children, want %d", i, len(children), len(wantKids))
				}
				for j := range children {
					if children[j] != wantKids[j] {
						t.Fatalf("Navigate(%d) child %d = %d, want %d", i, j, children[j], wantKids[j])
					}
				}
				// Navigation projects the children out of the stored
				// object; the object assembled from the same pages must
				// agree.
				if k == NSM {
					continue
				}
				assembled, err := m.FetchByAddress(i)
				if err != nil {
					t.Fatalf("FetchByAddress(%d): %v", i, err)
				}
				if !reflect.DeepEqual(children, assembled.Children()) {
					t.Fatalf("Navigate(%d) children %v, assembled station's %v", i, children, assembled.Children())
				}
			}
		})
	}
}

func TestReadRootAllModels(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			for i, want := range stations {
				got, err := m.ReadRoot(i)
				if err != nil {
					t.Fatalf("ReadRoot(%d): %v", i, err)
				}
				if got != want.Root() {
					t.Fatalf("ReadRoot(%d) mismatch", i)
				}
			}
		})
	}
}

func TestUpdateRootsAllModels(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			idxs := []int32{1, 5, 9, 9, 20} // duplicate on purpose
			err := m.UpdateRoots(idxs, func(i int32, r *cobench.RootRecord) {
				r.Name = fmt.Sprintf("updated-%d", i)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := m.Engine().ColdCache(); err != nil {
				t.Fatal(err)
			}
			// Updated roots visible after a cold restart.
			for _, i := range []int32{1, 5, 9, 20} {
				r, err := m.ReadRoot(int(i))
				if err != nil {
					t.Fatal(err)
				}
				if r.Name != fmt.Sprintf("updated-%d", i) {
					t.Errorf("root %d not updated: %q", i, r.Name)
				}
			}
			// Untouched object unchanged, structure preserved.
			var got *cobench.Station
			var err2 error
			if k == NSM {
				got, err2 = m.FetchByKey(cobench.KeyOf(2))
			} else {
				got, err2 = m.FetchByAddress(2)
			}
			if err2 != nil {
				t.Fatal(err2)
			}
			if !got.Equal(stations[2]) {
				t.Error("untouched station changed")
			}
			// The updated object keeps its sub-structure.
			if k == NSM {
				got, err2 = m.FetchByKey(cobench.KeyOf(9))
			} else {
				got, err2 = m.FetchByAddress(9)
			}
			if err2 != nil {
				t.Fatal(err2)
			}
			if got.Name != "updated-9" {
				t.Error("update lost after reload")
			}
			if len(got.Platforms) != len(stations[9].Platforms) ||
				len(got.Seeings) != len(stations[9].Seeings) {
				t.Error("update disturbed object structure")
			}
		})
	}
}

func TestErrorsOnEmptyAndBadIndex(t *testing.T) {
	for _, k := range AllKinds() {
		m := mustNew(k, Options{BufferPages: 16})
		if _, err := m.FetchByKey(1); !errors.Is(err, ErrNotLoaded) {
			t.Errorf("%s: FetchByKey empty err = %v", k, err)
		}
		if err := m.ScanAll(func(int, *cobench.Station) error { return nil }); !errors.Is(err, ErrNotLoaded) {
			t.Errorf("%s: ScanAll empty err = %v", k, err)
		}
	}
	stations := testExtension(t, 10)
	for _, k := range AllKinds() {
		m := loadModel(t, k, stations)
		if _, _, err := m.Navigate(99); !errors.Is(err, ErrBadObject) {
			t.Errorf("%s: Navigate(99) err = %v", k, err)
		}
		if _, err := m.ReadRoot(-1); !errors.Is(err, ErrBadObject) {
			t.Errorf("%s: ReadRoot(-1) err = %v", k, err)
		}
		if err := m.Load(stations); err == nil {
			t.Errorf("%s: double load accepted", k)
		}
	}
}

// --- I/O shape assertions (the paper's qualitative claims) -----------------

// coldStats runs fn on a cold cache and returns the I/O delta.
func coldStats(t *testing.T, m Model, fn func()) (pagesRead, readCalls, pagesWritten int64) {
	t.Helper()
	if err := m.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	m.Engine().ResetStats()
	fn()
	s := m.Engine().Stats()
	return s.PagesRead, s.ReadCalls, s.PagesWritten
}

func TestDirectReadRootShape(t *testing.T) {
	stations := testExtension(t, 40)
	dsm := loadModel(t, DSM, stations)
	ddsm := loadModel(t, DASDBSDSM, stations)
	// Pick an object that is certainly multi-page (many sightseeings).
	big := -1
	for i, s := range stations {
		if len(s.Seeings) >= 10 {
			big = i
			break
		}
	}
	if big < 0 {
		t.Fatal("no big object in extension")
	}
	dsmPages, _, _ := coldStats(t, dsm, func() {
		if _, err := dsm.ReadRoot(big); err != nil {
			t.Fatal(err)
		}
	})
	ddsmPages, ddsmCalls, _ := coldStats(t, ddsm, func() {
		if _, err := ddsm.ReadRoot(big); err != nil {
			t.Fatal(err)
		}
	})
	// Paper: "the direct storage models need at least two page fetches per
	// large tuple (header and data)"; DASDBS-DSM reads exactly header + the
	// root record's data page, DSM transfers the whole object.
	if ddsmPages != 2 {
		t.Errorf("DASDBS-DSM ReadRoot pages = %d, want 2 (header + one data page)", ddsmPages)
	}
	if ddsmCalls != 2 {
		t.Errorf("DASDBS-DSM ReadRoot calls = %d, want 2", ddsmCalls)
	}
	if dsmPages <= ddsmPages {
		t.Errorf("DSM ReadRoot pages = %d, not larger than DASDBS-DSM's %d", dsmPages, ddsmPages)
	}
}

func TestDirectNavigateSkipsSightseeings(t *testing.T) {
	stations := testExtension(t, 40)
	dsm := loadModel(t, DSM, stations)
	ddsm := loadModel(t, DASDBSDSM, stations)
	var dsmTotal, ddsmTotal int64
	for i, s := range stations {
		if len(s.Seeings) < 8 {
			continue
		}
		p1, _, _ := coldStats(t, dsm, func() { dsm.Navigate(i) })
		p2, _, _ := coldStats(t, ddsm, func() { ddsm.Navigate(i) })
		dsmTotal += p1
		ddsmTotal += p2
	}
	if ddsmTotal >= dsmTotal {
		t.Errorf("navigation pages: DASDBS-DSM %d >= DSM %d; partial access buys nothing",
			ddsmTotal, dsmTotal)
	}
}

func TestNSMValueQueryScansEverything(t *testing.T) {
	stations := testExtension(t, 120)
	pure := loadModel(t, NSM, stations)
	idx := loadModel(t, NSMIndex, stations)

	purePages, _, _ := coldStats(t, pure, func() {
		if _, err := pure.FetchByKey(cobench.KeyOf(50)); err != nil {
			t.Fatal(err)
		}
	})
	idxPages, _, _ := coldStats(t, idx, func() {
		if _, err := idx.FetchByKey(cobench.KeyOf(50)); err != nil {
			t.Fatal(err)
		}
	})
	total := int64(pure.Sizes().TotalPages())
	if purePages != total {
		t.Errorf("pure NSM value query read %d pages, want full scan of all relations (%d)",
			purePages, total)
	}
	stationPages := int64(0)
	for _, rel := range idx.Sizes().Relations {
		if rel.Name == "NSM_Station" {
			stationPages = int64(rel.M)
		}
	}
	if idxPages >= purePages {
		t.Errorf("NSM+index value query (%d pages) not cheaper than pure NSM (%d)", idxPages, purePages)
	}
	if idxPages < stationPages {
		t.Errorf("NSM+index value query read %d pages, below the root relation scan (%d)",
			idxPages, stationPages)
	}
	if idxPages > stationPages+12 {
		t.Errorf("NSM+index value query read %d pages, want ~scan(%d)+handful", idxPages, stationPages)
	}
}

func TestDNSMNavigateTouchesTwoRelations(t *testing.T) {
	stations := testExtension(t, 40)
	m := loadModel(t, DASDBSNSM, stations)
	pages, _, _ := coldStats(t, m, func() {
		if _, _, err := m.Navigate(5); err != nil {
			t.Fatal(err)
		}
	})
	// Root tuple page + connection tuple page.
	if pages != 2 {
		t.Errorf("DASDBS-NSM navigate cold pages = %d, want 2", pages)
	}
}

func TestDNSMNavigateIndependentOfSightseeings(t *testing.T) {
	// The same navigation must cost the same pages whether objects carry 0
	// or 30 sightseeings (Figure 5's flat DASDBS-NSM bars for query 2b).
	cost := func(maxSeeing int) int64 {
		cfg := cobench.DefaultConfig().WithN(40).WithMaxSeeing(maxSeeing)
		stations, err := cobench.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := loadModel(t, DASDBSNSM, stations)
		pages, _, _ := coldStats(t, m, func() {
			for i := 0; i < 40; i++ {
				if _, _, err := m.Navigate(i); err != nil {
					t.Fatal(err)
				}
			}
		})
		return pages
	}
	c0, c30 := cost(0), cost(30)
	if c0 != c30 {
		t.Errorf("DASDBS-NSM navigation pages vary with sightseeings: %d vs %d", c0, c30)
	}
}

func TestUpdateWritePolicyShape(t *testing.T) {
	stations := testExtension(t, 40)
	grand := []int32{3, 8, 12, 17, 22, 28}
	mut := func(i int32, r *cobench.RootRecord) { r.Name = fmt.Sprintf("upd-%d", i) }

	// DSM: deferred batched writes (replace set of tuples).
	dsm := loadModel(t, DSM, stations)
	_, _, writesBeforeFlush := coldStats(t, dsm, func() {
		if err := dsm.UpdateRoots(grand, mut); err != nil {
			t.Fatal(err)
		}
	})
	if writesBeforeFlush != 0 {
		t.Errorf("DSM wrote %d pages before flush; replace-set-of-tuples must batch", writesBeforeFlush)
	}
	dsm.Engine().ResetStats()
	if err := dsm.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := dsm.Engine().Stats().PagesWritten; w == 0 {
		t.Error("DSM flush wrote nothing")
	}

	// DASDBS-DSM: write-through page pool per updated tuple.
	ddsm := loadModel(t, DASDBSDSM, stations)
	_, _, ddsmWrites := coldStats(t, ddsm, func() {
		if err := ddsm.UpdateRoots(grand, mut); err != nil {
			t.Fatal(err)
		}
	})
	if ddsmWrites < int64(len(grand)) {
		t.Errorf("DASDBS-DSM wrote %d pages during %d change-attribute ops; want >= one per op (§5.3 anomaly)",
			ddsmWrites, len(grand))
	}

	// DASDBS-NSM: root tuples share pages; a batch of updates must write
	// far fewer pages than updates.
	dnsmM := loadModel(t, DASDBSNSM, stations)
	if err := dnsmM.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	dnsmM.Engine().ResetStats()
	if err := dnsmM.UpdateRoots(grand, mut); err != nil {
		t.Fatal(err)
	}
	if err := dnsmM.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := dnsmM.Engine().Stats().PagesWritten; w >= int64(len(grand)) {
		t.Errorf("DASDBS-NSM wrote %d pages for %d root updates; shared pages must batch", w, len(grand))
	}
}

func TestSizesReports(t *testing.T) {
	stations := testExtension(t, 100)
	for _, k := range AllKinds() {
		m := loadModel(t, k, stations)
		rep := m.Sizes()
		if rep.Model != k.String() {
			t.Errorf("%s: report model %q", k, rep.Model)
		}
		wantRels := 1
		if k == NSM || k == NSMIndex || k == DASDBSNSM {
			wantRels = 4
		}
		if len(rep.Relations) != wantRels {
			t.Fatalf("%s: %d relations, want %d", k, len(rep.Relations), wantRels)
		}
		if rep.TotalPages() <= 0 {
			t.Errorf("%s: no pages reported", k)
		}
		for _, rel := range rep.Relations {
			if rel.Tuples < 0 || rel.M < 0 || rel.AvgTupleBytes < 0 {
				t.Errorf("%s: nonsense relation %+v", k, rel)
			}
		}
	}
}

func TestNormalizedSmallerThanDirect(t *testing.T) {
	// The flat normalized model avoids the per-object header/padding pages,
	// so its total footprint must be below the direct models' (paper
	// Table 2: 6000 pages for DSM vs ~3700 normalized). DASDBS-NSM pays a
	// header page per large sightseeing tuple, so it only has to stay in
	// the same ballpark as DSM here (the paper's wide 6000-vs-3800 gap is
	// driven by DASDBS's DSM tuple overhead, which our leaner encoding does
	// not replicate; see EXPERIMENTS.md).
	stations := testExtension(t, 200)
	direct := loadModel(t, DSM, stations).Sizes().TotalPages()
	norm := loadModel(t, NSM, stations).Sizes().TotalPages()
	dnsmPages := loadModel(t, DASDBSNSM, stations).Sizes().TotalPages()
	if norm >= direct {
		t.Errorf("NSM pages %d >= DSM pages %d", norm, direct)
	}
	if float64(dnsmPages) > 1.15*float64(direct) {
		t.Errorf("DASDBS-NSM pages %d far beyond DSM pages %d", dnsmPages, direct)
	}
}

func TestSmallObjectsShareDirectPages(t *testing.T) {
	// With maxSeeing=0 most stations fit a single page and must share pages
	// (Figure 5 discussion: "several objects will share a single page").
	cfg := cobench.DefaultConfig().WithN(100).WithMaxSeeing(0)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModel(t, DSM, stations)
	rep := m.Sizes()
	if rep.TotalPages() >= 100 {
		t.Errorf("100 tiny objects on %d pages; page sharing broken", rep.TotalPages())
	}
}

func TestUpdateObjectStructural(t *testing.T) {
	stations := testExtension(t, 50)
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			m := loadModel(t, k, stations)
			// Grow: add a platform with a connection and three sightseeings.
			err := m.UpdateObject(4, func(s *cobench.Station) error {
				s.Platforms = append(s.Platforms, cobench.Platform{
					Nr: 9, NoLine: 1, TicketCode: 1234, Information: "new platform",
					Conns: []cobench.Connection{{LineNr: 1, KeyConnection: cobench.KeyOf(2), OidConnection: 2, DepartureTimes: "08:00"}},
				})
				for j := 0; j < 3; j++ {
					s.Seeings = append(s.Seeings, cobench.Sightseeing{
						Nr: int32(100 + j), Description: "added", Location: "here",
						History: "new", Remarks: "-",
					})
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := m.Engine().ColdCache(); err != nil {
				t.Fatal(err)
			}
			got, err := m.FetchByKey(cobench.KeyOf(4))
			if err != nil {
				t.Fatal(err)
			}
			wantPlat := len(stations[4].Platforms) + 1
			wantSee := len(stations[4].Seeings) + 3
			if len(got.Platforms) != wantPlat || len(got.Seeings) != wantSee {
				t.Fatalf("structural grow lost: %d platforms (want %d), %d seeings (want %d)",
					len(got.Platforms), wantPlat, len(got.Seeings), wantSee)
			}
			if got.NoPlatform != int32(wantPlat) || got.NoSeeing != int32(wantSee) {
				t.Error("root counters not refreshed")
			}
			// The new child is navigable.
			_, children, err := m.Navigate(4)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, c := range children {
				if c == 2 {
					found = true
				}
			}
			if !found {
				t.Error("added connection not visible to navigation")
			}
			// Shrink: drop all sightseeings (relocation back to small for
			// direct models).
			err = m.UpdateObject(4, func(s *cobench.Station) error {
				s.Seeings = nil
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := m.Engine().ColdCache(); err != nil {
				t.Fatal(err)
			}
			got, err = m.FetchByKey(cobench.KeyOf(4))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Seeings) != 0 || got.NoSeeing != 0 {
				t.Fatal("shrink lost")
			}
			// Untouched neighbours unaffected.
			other, err := m.FetchByKey(cobench.KeyOf(5))
			if err != nil {
				t.Fatal(err)
			}
			if !other.Equal(stations[5]) {
				t.Error("neighbour object disturbed by relocation")
			}
		})
	}
}

func TestUpdateObjectErrors(t *testing.T) {
	stations := testExtension(t, 10)
	m := loadModel(t, DSM, stations)
	if err := m.UpdateObject(99, func(*cobench.Station) error { return nil }); !errors.Is(err, ErrBadObject) {
		t.Errorf("bad index err = %v", err)
	}
	sentinel := errors.New("boom")
	if err := m.UpdateObject(1, func(*cobench.Station) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("mutate error not propagated: %v", err)
	}
	// Counted-index NSM rejects structural updates (append-only B+-trees).
	mi := mustNew(NSMIndex, Options{BufferPages: 128, CountIndexIO: true})
	if err := mi.Load(stations); err != nil {
		t.Fatal(err)
	}
	if err := mi.UpdateObject(1, func(s *cobench.Station) error {
		s.Seeings = nil
		return nil
	}); err == nil {
		t.Error("counted-index structural update accepted")
	}
}

func TestUpdateObjectRelocationAccounting(t *testing.T) {
	// Growing a station beyond its page run must relocate it and keep the
	// size report consistent.
	cfg := cobench.DefaultConfig().WithN(30)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModel(t, DSM, stations)
	before := m.Sizes().TotalPages()
	err = m.UpdateObject(0, func(s *cobench.Station) error {
		for j := 0; j < 25; j++ {
			s.Seeings = append(s.Seeings, cobench.Sightseeing{
				Nr: int32(j), Description: "big", Location: "big", History: "big", Remarks: "big",
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := m.Sizes().TotalPages()
	if after <= before {
		t.Errorf("relocated object did not grow the store: %d -> %d", before, after)
	}
	got, err := m.FetchByAddress(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Seeings) != len(stations[0].Seeings)+25 {
		t.Error("relocated object content wrong")
	}
}

// mustNew builds a model over a fresh in-memory engine; construction
// cannot fail for the memory backend.
func mustNew(k Kind, o Options) Model {
	m, err := New(k, o)
	if err != nil {
		panic(err)
	}
	return m
}
