package longobj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/xrand"
)

func newStore(t *testing.T, poolPages int) (*disk.Disk, *buffer.Pool, *Store) {
	t.Helper()
	d := disk.New(disk.DefaultPageSize)
	p := buffer.New(d, poolPages, buffer.LRU)
	return d, p, New(d, p, "objects")
}

func comp(tag uint8, b byte, n int) Component {
	data := make([]byte, n)
	for i := range data {
		data[i] = b
	}
	return Component{Tag: tag, Data: data}
}

func equalComps(a, b []Component) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func TestSmallObjectSharedPage(t *testing.T) {
	d, pool, s := newStore(t, 8)
	c1 := []Component{comp(0, 1, 100), comp(1, 2, 150)}
	c2 := []Component{comp(0, 3, 120)}
	r1, err := s.Insert(c1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Insert(c2)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Small || !r2.Small {
		t.Fatal("small objects not stored inline")
	}
	if r1.RID.Page != r2.RID.Page {
		t.Error("two small objects did not share a page")
	}
	got1, err := s.ReadAll(r1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s.ReadAll(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got1, c1) || !equalComps(got2, c2) {
		t.Error("small object round trip mismatch")
	}
	pool.Reset()
	d.ResetStats()
	if _, err := s.ReadAll(r1); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.PagesRead != 1 || st.ReadCalls != 1 {
		t.Errorf("small read cost %v, want 1 page / 1 call", st)
	}
}

func TestLargeObjectLayout(t *testing.T) {
	d, _, s := newStore(t, 16)
	// ~3.5 effective pages of data.
	comps := []Component{comp(0, 1, 2000), comp(1, 2, 2000), comp(2, 3, 3000)}
	ref, err := s.Insert(comps)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Small {
		t.Fatal("large object stored inline")
	}
	if ref.HeaderPages != 1 {
		t.Errorf("header pages = %d, want 1", ref.HeaderPages)
	}
	eff := d.EffectivePageSize()
	wantData := (2000 + 2000 + 3000 + eff - 1) / eff
	if int(ref.DataPages) != wantData {
		t.Errorf("data pages = %d, want %d", ref.DataPages, wantData)
	}
	if ref.Pages() != 1+wantData {
		t.Errorf("Pages() = %d", ref.Pages())
	}
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got, comps) {
		t.Error("large object round trip mismatch")
	}
}

func TestLargeReadAllCost(t *testing.T) {
	d, pool, s := newStore(t, 16)
	comps := []Component{comp(0, 1, 2000), comp(1, 2, 2000), comp(2, 3, 3000)}
	ref, _ := s.Insert(comps)
	pool.Reset()
	d.ResetStats()
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// DSM read path: one call for the header page, one for the contiguous
	// data run ("about 2 pages are read per I/O call" with ~2 data pages).
	if st.ReadCalls != 2 {
		t.Errorf("ReadAll calls = %d, want 2 (header + data run)", st.ReadCalls)
	}
	if int(st.PagesRead) != ref.Pages() {
		t.Errorf("ReadAll pages = %d, want %d", st.PagesRead, ref.Pages())
	}
}

func TestReadPartsTouchesOnlyNeededPages(t *testing.T) {
	d, pool, s := newStore(t, 16)
	eff := d.EffectivePageSize()
	// Component 0 fills page 1 exactly; component 1 fills page 2; component
	// 2 fills page 3. Selecting only component 0 must not read pages 2-3.
	comps := []Component{comp(0, 1, eff), comp(1, 2, eff), comp(2, 3, eff)}
	ref, _ := s.Insert(comps)
	pool.Reset()
	d.ResetStats()
	got, idxs, err := s.ReadParts(ref, func(tag uint8, idx int) bool { return tag == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tag != 0 || len(idxs) != 1 || idxs[0] != 0 {
		t.Fatalf("ReadParts returned %d comps, idxs %v", len(got), idxs)
	}
	if !bytes.Equal(got[0].Data, comps[0].Data) {
		t.Error("partial read data mismatch")
	}
	st := d.Stats()
	// Header page + 1 data page, in 2 calls (header first, then data) —
	// the paper's "we only need to retrieve the header page and a single
	// data page".
	if st.PagesRead != 2 {
		t.Errorf("partial read pages = %d, want 2", st.PagesRead)
	}
	if st.ReadCalls != 2 {
		t.Errorf("partial read calls = %d, want 2", st.ReadCalls)
	}
}

func TestReadPartsSpanningComponent(t *testing.T) {
	d, pool, s := newStore(t, 16)
	eff := d.EffectivePageSize()
	// Component 1 spans pages 2 and 3.
	comps := []Component{comp(0, 1, eff/2), comp(1, 2, eff+eff/2), comp(2, 3, eff)}
	ref, _ := s.Insert(comps)
	pool.Reset()
	d.ResetStats()
	got, _, err := s.ReadParts(ref, func(tag uint8, _ int) bool { return tag == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0].Data, comps[1].Data) {
		t.Error("spanning component data mismatch")
	}
	// Header + data pages 1 and 2 (the span's two pages).
	if st := d.Stats(); st.PagesRead != 3 {
		t.Errorf("spanning partial read pages = %d, want 3", st.PagesRead)
	}
}

func TestReadPartsEverythingEqualsReadAll(t *testing.T) {
	_, _, s := newStore(t, 16)
	comps := []Component{comp(0, 1, 500), comp(1, 2, 2500), comp(2, 3, 1200)}
	ref, _ := s.Insert(comps)
	all, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	parts, idxs, err := s.ReadParts(ref, func(uint8, int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(all, parts) {
		t.Error("ReadParts(all) != ReadAll")
	}
	if len(idxs) != len(comps) {
		t.Errorf("idxs = %v", idxs)
	}
}

func TestReadPartsNothing(t *testing.T) {
	_, _, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 5000)})
	got, idxs, err := s.ReadParts(ref, func(uint8, int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(idxs) != 0 {
		t.Error("empty selection returned components")
	}
}

func TestReplaceAllLargeInPlace(t *testing.T) {
	d, pool, s := newStore(t, 16)
	comps := []Component{comp(0, 1, 2000), comp(1, 2, 3000)}
	ref, _ := s.Insert(comps)
	updated := []Component{comp(0, 9, 2000), comp(1, 8, 3000)}
	if err := s.ReplaceAll(ref, updated); err != nil {
		t.Fatal(err)
	}
	// Writes are deferred to flush (replace-set-of-tuples batching).
	d.ResetStats()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if int(st.PagesWritten) != ref.Pages() {
		t.Errorf("flush wrote %d pages, want %d", st.PagesWritten, ref.Pages())
	}
	if st.WriteCalls != 1 {
		t.Errorf("flush calls = %d, want 1 (contiguous object)", st.WriteCalls)
	}
	pool.Reset()
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got, updated) {
		t.Error("replacement not visible after reload")
	}
}

func TestReplaceAllRejectsLayoutChange(t *testing.T) {
	_, _, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 2000), comp(1, 2, 3000)})
	err := s.ReplaceAll(ref, []Component{comp(0, 1, 9000)})
	if !errors.Is(err, ErrResize) {
		t.Errorf("layout-changing replace err = %v, want ErrResize", err)
	}
}

func TestReplaceAllSmall(t *testing.T) {
	_, pool, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 100), comp(1, 2, 100)})
	updated := []Component{comp(0, 7, 100), comp(1, 6, 100)}
	if err := s.ReplaceAll(ref, updated); err != nil {
		t.Fatal(err)
	}
	pool.FlushAll()
	pool.Reset()
	got, _ := s.ReadAll(ref)
	if !equalComps(got, updated) {
		t.Error("small replace mismatch")
	}
}

func TestChangeComponentWritesThrough(t *testing.T) {
	d, pool, s := newStore(t, 16)
	eff := d.EffectivePageSize()
	comps := []Component{comp(0, 1, 200), comp(1, 2, 2*eff)}
	ref, _ := s.Insert(comps)
	pool.Reset()
	d.ResetStats()
	newRoot := make([]byte, 200)
	for i := range newRoot {
		newRoot[i] = 0xEE
	}
	n, err := s.ChangeComponent(ref, 0, newRoot)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("pages written through = %d, want 1 (single-page pool)", n)
	}
	st := d.Stats()
	if st.PagesWritten != 1 || st.WriteCalls != 1 {
		t.Errorf("write-through stats %v, want immediate 1-page write", st)
	}
	pool.Reset()
	got, _ := s.ReadAll(ref)
	if !bytes.Equal(got[0].Data, newRoot) {
		t.Error("change not persisted")
	}
	if !bytes.Equal(got[1].Data, comps[1].Data) {
		t.Error("untouched component corrupted")
	}
}

func TestChangeComponentSmallObject(t *testing.T) {
	d, pool, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 100), comp(1, 2, 200)})
	pool.Reset()
	d.ResetStats()
	repl := make([]byte, 100)
	n, err := s.ChangeComponent(ref, 0, repl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("small change wrote %d pages", n)
	}
	// Read page + immediate write = the §5.3 anomaly: every change-attr op
	// pays a physical write even though many objects share the page.
	if st := d.Stats(); st.PagesWritten != 1 {
		t.Errorf("small object change-attr wrote %d pages, want 1", st.PagesWritten)
	}
}

func TestChangeComponentRejectsLengthChange(t *testing.T) {
	_, _, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 200), comp(1, 2, 5000)})
	if _, err := s.ChangeComponent(ref, 0, make([]byte, 199)); !errors.Is(err, ErrSameLen) {
		t.Errorf("length change err = %v", err)
	}
	if _, err := s.ChangeComponent(ref, 5, make([]byte, 10)); !errors.Is(err, ErrBadComp) {
		t.Errorf("bad index err = %v", err)
	}
}

func TestManyHeaderPages(t *testing.T) {
	d, _, s := newStore(t, 64)
	// Enough components that the directory spills beyond one header page:
	// entries are 9 bytes, one page holds ~223.
	var comps []Component
	for i := 0; i < 300; i++ {
		comps = append(comps, comp(uint8(i%3), byte(i), 40))
	}
	ref, err := s.Insert(comps)
	if err != nil {
		t.Fatal(err)
	}
	if ref.HeaderPages < 2 {
		t.Fatalf("header pages = %d, want >= 2", ref.HeaderPages)
	}
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got, comps) {
		t.Error("multi-header object round trip failed")
	}
	_ = d
}

func TestStatsAccounting(t *testing.T) {
	_, _, s := newStore(t, 16)
	s.Insert([]Component{comp(0, 1, 100)})  // small
	s.Insert([]Component{comp(0, 1, 3000)}) // large: 1h + 2d
	s.Insert([]Component{comp(0, 1, 5000)}) // large: 1h + 3d
	if s.NumLarge() != 2 {
		t.Errorf("NumLarge = %d", s.NumLarge())
	}
	h, dd := s.LargePages()
	if h != 2 || dd != 5 {
		t.Errorf("LargePages = %d,%d; want 2,5", h, dd)
	}
	if s.SharedHeap().NumRecords() != 1 {
		t.Errorf("shared heap records = %d", s.SharedHeap().NumRecords())
	}
}

func TestEmptyComponentData(t *testing.T) {
	_, _, s := newStore(t, 16)
	comps := []Component{comp(0, 1, 0), comp(1, 2, 4000)}
	ref, err := s.Insert(comps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Data) != 0 || !bytes.Equal(got[1].Data, comps[1].Data) {
		t.Error("empty component round trip failed")
	}
	parts, _, err := s.ReadParts(ref, func(tag uint8, _ int) bool { return tag == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || len(parts[0].Data) != 0 {
		t.Error("empty component partial read failed")
	}
}

func TestInsertEmptyObjectRejected(t *testing.T) {
	_, _, s := newStore(t, 16)
	if _, err := s.Insert(nil); err == nil {
		t.Error("empty object accepted")
	}
}

func TestRandomObjectsRoundTripUnderSmallPool(t *testing.T) {
	d, pool, s := newStore(t, 4)
	rng := xrand.New(77)
	type obj struct {
		ref   Ref
		comps []Component
	}
	var objs []obj
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(5)
		var comps []Component
		for j := 0; j < n; j++ {
			comps = append(comps, comp(uint8(j), byte(rng.Intn(256)), rng.Intn(3000)))
		}
		ref, err := s.Insert(comps)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj{ref, comps})
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		got, err := s.ReadAll(o.ref)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if !equalComps(got, o.comps) {
			t.Fatalf("object %d round trip mismatch", i)
		}
		// Partial read of a random component agrees with the full read.
		k := rng.Intn(len(o.comps))
		parts, idxs, err := s.ReadParts(o.ref, func(_ uint8, idx int) bool { return idx == k })
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 1 || idxs[0] != k || !bytes.Equal(parts[0].Data, o.comps[k].Data) {
			t.Fatalf("object %d partial read of comp %d mismatch", i, k)
		}
	}
	_ = d
}

func TestReplaceInPlaceKeepsRef(t *testing.T) {
	_, _, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 2000), comp(1, 2, 3000)})
	nref, err := s.Replace(ref, []Component{comp(0, 9, 2000), comp(1, 8, 3000)})
	if err != nil {
		t.Fatal(err)
	}
	if nref != ref {
		t.Error("same-layout replace relocated")
	}
}

func TestReplaceRelocatesLargeGrowth(t *testing.T) {
	d, _, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 3000)})
	grown := []Component{comp(0, 2, 3000), comp(1, 3, 6000)}
	nref, err := s.Replace(ref, grown)
	if err != nil {
		t.Fatal(err)
	}
	if nref == ref {
		t.Fatal("grown object not relocated")
	}
	got, err := s.ReadAll(nref)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got, grown) {
		t.Error("relocated content mismatch")
	}
	if s.FreedPages() == 0 {
		t.Error("relocation did not account freed pages")
	}
	if s.NumLarge() != 1 {
		t.Errorf("NumLarge = %d after relocation", s.NumLarge())
	}
	_ = d
}

func TestReplaceSmallGrowsToLarge(t *testing.T) {
	_, pool, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 100)})
	if !ref.Small {
		t.Fatal("setup: object not small")
	}
	big := []Component{comp(0, 2, 100), comp(1, 3, 5000)}
	nref, err := s.Replace(ref, big)
	if err != nil {
		t.Fatal(err)
	}
	if nref.Small {
		t.Fatal("grown object still small")
	}
	pool.FlushAll()
	pool.Reset()
	got, err := s.ReadAll(nref)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got, big) {
		t.Error("small-to-large migration lost data")
	}
	// Old slot must be gone from the shared heap.
	if s.SharedHeap().NumRecords() != 0 {
		t.Errorf("old small record lingers: %d", s.SharedHeap().NumRecords())
	}
}

func TestReplaceSmallWithinPage(t *testing.T) {
	_, _, s := newStore(t, 16)
	ref, _ := s.Insert([]Component{comp(0, 1, 100)})
	// Grow modestly: still fits the page, ref may stay identical.
	nref, err := s.Replace(ref, []Component{comp(0, 2, 150)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(nref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Data[0] != 2 || len(got[0].Data) != 150 {
		t.Error("in-page grow lost data")
	}
}

func TestReplaceSmallRelocatesWhenPageFull(t *testing.T) {
	_, _, s := newStore(t, 16)
	// Fill one shared page with several objects, then grow one of them so
	// it cannot stay on its page.
	var refs []Ref
	for i := 0; i < 4; i++ {
		r, err := s.Insert([]Component{comp(0, byte(i), 450)})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	if refs[0].RID.Page != refs[3].RID.Page {
		t.Skip("objects did not share a page; geometry changed")
	}
	grown := []Component{comp(0, 9, 1200)}
	nref, err := s.Replace(refs[1], grown)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(nref)
	if err != nil {
		t.Fatal(err)
	}
	if !equalComps(got, grown) {
		t.Error("page-full relocation lost data")
	}
	// Neighbours unaffected.
	for _, i := range []int{0, 2, 3} {
		g, err := s.ReadAll(refs[i])
		if err != nil || g[0].Data[0] != byte(i) {
			t.Errorf("neighbour %d damaged: %v", i, err)
		}
	}
}

// ioCounts is what a read costs in the paper's terms.
type ioCounts struct {
	pages, calls, fixes, hits int64
}

func measure(t *testing.T, d *disk.Disk, pool *buffer.Pool, read func() []Component) ([]Component, ioCounts) {
	t.Helper()
	d.ResetStats()
	pool.ResetStats()
	comps := read()
	// Detach from the store scratch before the next read reuses it.
	out := make([]Component, len(comps))
	for i, c := range comps {
		out[i] = Component{Tag: c.Tag, Data: bytes.Clone(c.Data)}
	}
	st := d.Stats()
	return out, ioCounts{st.PagesRead, st.ReadCalls, pool.Fixes(), pool.Hits()}
}

// A tag-filtered ReadAllShared pays exactly the full read's I/O — same
// pages, calls, fixes and hits, cold and warm — and returns exactly the
// full read's components of the wanted tags, byte for byte.
func TestReadAllSharedFilterSameIOFewerCopies(t *testing.T) {
	d, pool, s := newStore(t, 16)
	eff := d.EffectivePageSize()
	objects := [][]Component{
		{comp(0, 1, 300), comp(1, 2, 200), comp(2, 3, 100)},                     // small
		{comp(0, 1, 500), comp(1, 2, eff+700), comp(2, 3, 1200), comp(1, 4, 9)}, // large
		{comp(2, 5, eff), comp(0, 6, 0), comp(1, 7, 2*eff+1)},                   // large, root not first
	}
	filters := map[string]func(uint8, int) bool{
		"root":     func(tag uint8, _ int) bool { return tag == 0 },
		"root+pl":  func(tag uint8, _ int) bool { return tag == 0 || tag == 1 },
		"nothing":  func(uint8, int) bool { return false },
		"all(nil)": nil,
	}
	for oi, obj := range objects {
		ref, err := s.Insert(obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		for name, want := range filters {
			for _, cold := range []bool{true, false} {
				if cold {
					if err := pool.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				full, fullIO := measure(t, d, pool, func() []Component {
					c, err := s.ReadAll(ref)
					if err != nil {
						t.Fatal(err)
					}
					return c
				})
				if cold {
					if err := pool.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				got, gotIO := measure(t, d, pool, func() []Component {
					c, err := s.ReadAllShared(ref, want)
					if err != nil {
						t.Fatal(err)
					}
					return c
				})
				if gotIO != fullIO {
					t.Errorf("object %d %s cold=%v: filtered read I/O %+v, full read %+v", oi, name, cold, gotIO, fullIO)
				}
				var wantComps []Component
				for i, c := range full {
					if want == nil || want(c.Tag, i) {
						wantComps = append(wantComps, c)
					}
				}
				if !equalComps(got, wantComps) {
					t.Errorf("object %d %s: filtered components differ from the full read's", oi, name)
				}
			}
		}
	}
}

// A directory entry pointing past the object's data area is rejected
// before any data page is fixed: ReadParts must not read, nor
// ChangeComponent write, pages belonging to a neighbouring object (or
// past the device end).
func TestReadPartsRejectsEntryBeyondData(t *testing.T) {
	d, pool, s := newStore(t, 16)
	eff := d.EffectivePageSize()
	ref, err := s.Insert([]Component{comp(0, 1, 100), comp(1, 2, eff), comp(2, 3, 400)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([]Component{comp(0, 9, 3*eff)}); err != nil { // the neighbour
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Point entry 1 one page past the object's last data page.
	hdr, err := d.ReadCopy(ref.Start, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry := hdr[0][disk.SysHeaderSize+dirPrologue+dirEntry*1:]
	binary.BigEndian.PutUint32(entry[1:], uint32((int(ref.DataPages)+1)*eff))
	if err := d.WriteRun(ref.Start, hdr); err != nil {
		t.Fatal(err)
	}
	if err := pool.Reset(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	_, _, err = s.ReadParts(ref, func(tag uint8, _ int) bool { return tag == 1 })
	if !errors.Is(err, ErrBadRef) {
		t.Fatalf("ReadParts over a corrupt directory entry: err = %v, want ErrBadRef", err)
	}
	if st := d.Stats(); st.PagesRead != int64(ref.HeaderPages) {
		t.Errorf("corrupt-entry ReadParts read %d pages, want only the %d header page(s)", st.PagesRead, ref.HeaderPages)
	}
	// Selecting only intact components still fails: the directory as a
	// whole is validated, as ReadAll does.
	if _, _, err := s.ReadParts(ref, func(tag uint8, _ int) bool { return tag == 0 }); !errors.Is(err, ErrBadRef) {
		t.Errorf("ReadParts of an intact component of a corrupt object: err = %v, want ErrBadRef", err)
	}
	if _, err := s.ReadAll(ref); !errors.Is(err, ErrBadRef) {
		t.Errorf("ReadAll over a corrupt directory entry: err = %v, want ErrBadRef", err)
	}
	d.ResetStats()
	if _, err := s.ChangeComponent(ref, 1, make([]byte, eff)); !errors.Is(err, ErrBadRef) {
		t.Errorf("ChangeComponent of a corrupt directory entry: err = %v, want ErrBadRef", err)
	}
	if st := d.Stats(); st.PagesWritten != 0 {
		t.Errorf("corrupt-entry ChangeComponent wrote %d pages", st.PagesWritten)
	}
}
