package longobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/heap"
	"complexobj/internal/page"
	"complexobj/internal/wire"
)

// Component is one tagged piece of an object. Tags are defined by the
// storage model (e.g. root record vs platform vs sightseeing).
type Component struct {
	Tag  uint8
	Data []byte
}

// Ref addresses a stored object. It is the paper's "address" OID for
// direct storage models.
type Ref struct {
	Small       bool
	RID         heap.RID    // when Small
	Start       disk.PageID // when large: first header page
	HeaderPages uint16
	DataPages   uint16
}

// Pages returns the total number of pages the object occupies (1 for small
// objects, though that page is shared with other objects).
func (r Ref) Pages() int {
	if r.Small {
		return 1
	}
	return int(r.HeaderPages) + int(r.DataPages)
}

// Errors returned by the store.
var (
	ErrResize  = errors.New("longobj: replacement changes page layout")
	ErrBadRef  = errors.New("longobj: invalid reference")
	ErrBadComp = errors.New("longobj: invalid component index")
	ErrSameLen = errors.New("longobj: in-place change must preserve length")
)

// directory prologue: u16 component count + u32 total data bytes.
const dirPrologue = 6

// directory entry: u8 tag + u32 offset + u32 length.
const dirEntry = 9

// small-object inline encoding: u16 count, then per component u8 tag +
// u16 length, then the concatenated data.
const inlinePrologue = 2
const inlineEntry = 3

// pageRun is a contiguous run of recyclable pages in the free-space map.
type pageRun struct {
	start disk.PageID
	n     int
}

// Store manages small and large objects over one device/pool pair.
type Store struct {
	dev    *disk.Disk
	pool   *buffer.Pool
	shared *heap.Heap

	large       int
	headerPages int
	dataPages   int
	dataBytes   int64
	freedPages  int
	// free is the free-space map: the page runs released by relocating
	// replacements, sorted by start and with adjacent runs merged. New
	// large objects take a first fit from here before extending the
	// device, so relocation-heavy workloads reach a stable device size
	// instead of growing the arena unboundedly.
	free []pageRun

	// Scratch buffers reused across calls. A Store, like the engine it
	// belongs to, has a single owner (workers and views never share one),
	// so the reuse is safe: hdrScratch backs readHeader and the directory
	// a write encodes, spanScratch the directory walk, idScratch and
	// pageScratch the page lists a call fixes, and idxScratch,
	// compScratch and blockScratch the results of ReadAllShared and
	// ReadParts (valid only until the next such call).
	hdrScratch   []byte
	spanScratch  []dirSpan
	idScratch    []disk.PageID
	pageScratch  []bool
	idxScratch   []int
	compScratch  []Component
	blockScratch []byte
}

// New creates a store whose small objects live in a shared heap called
// name.
func New(dev *disk.Disk, pool *buffer.Pool, name string) *Store {
	return &Store{dev: dev, pool: pool, shared: heap.New(dev, pool, name)}
}

// SharedHeap exposes the heap of small objects (for size reporting).
func (s *Store) SharedHeap() *heap.Heap { return s.shared }

// NumLarge returns the number of large (multi-page) objects.
func (s *Store) NumLarge() int { return s.large }

// LargePages returns total header and data pages of all large objects.
func (s *Store) LargePages() (header, data int) { return s.headerPages, s.dataPages }

// LargeDataBytes returns the total component payload bytes of all large
// objects (for size reporting).
func (s *Store) LargeDataBytes() int64 { return s.dataBytes }

// TotalPages returns every page the store occupies: shared heap pages plus
// the header and data pages of large objects (the paper's m for a
// direct-storage relation).
func (s *Store) TotalPages() int {
	return s.shared.NumPages() + s.headerPages + s.dataPages
}

// effSize returns usable payload bytes per page.
func (s *Store) effSize() int { return s.dev.EffectivePageSize() }

// inlineSize returns the encoded size of comps as a small-object record.
func inlineSize(comps []Component) int {
	n := inlinePrologue + inlineEntry*len(comps)
	for _, c := range comps {
		n += len(c.Data)
	}
	return n
}

// Insert stores the object and returns its address. Small objects share
// slotted pages; large objects are bulk-written to a fresh contiguous run
// (load-time I/O, reset by the harness before measuring).
func (s *Store) Insert(comps []Component) (Ref, error) {
	if len(comps) == 0 {
		return Ref{}, errors.New("longobj: object needs at least one component")
	}
	if inlineSize(comps) <= page.Capacity(s.dev.PageSize()) {
		rec := encodeInline(comps)
		rid, err := s.shared.Insert(rec)
		if err != nil {
			return Ref{}, err
		}
		return Ref{Small: true, RID: rid}, nil
	}
	return s.insertLarge(comps)
}

func encodeInline(comps []Component) []byte {
	buf := make([]byte, inlinePrologue+inlineEntry*len(comps))
	binary.BigEndian.PutUint16(buf, uint16(len(comps)))
	for i, c := range comps {
		base := inlinePrologue + inlineEntry*i
		buf[base] = c.Tag
		binary.BigEndian.PutUint16(buf[base+1:], uint16(len(c.Data)))
	}
	for _, c := range comps {
		buf = append(buf, c.Data...)
	}
	return buf
}

// inlineSpans resolves a small-object record's directory into the
// intervals of the components want selects (nil selects all). Every
// directory length is validated against the record first, so a corrupt
// record produces an error rather than a huge scratch allocation.
func (s *Store) inlineSpans(rec []byte, want func(tag uint8, idx int) bool) ([]dirSpan, error) {
	if len(rec) < inlinePrologue {
		return nil, fmt.Errorf("%w: short inline object", ErrBadRef)
	}
	n := int(binary.BigEndian.Uint16(rec))
	if len(rec) < inlinePrologue+inlineEntry*n {
		return nil, fmt.Errorf("%w: truncated inline directory", ErrBadRef)
	}
	spans := s.spanScratch[:0]
	off := inlinePrologue + inlineEntry*n
	for i := 0; i < n; i++ {
		base := inlinePrologue + inlineEntry*i
		tag := rec[base]
		l := int(binary.BigEndian.Uint16(rec[base+1:]))
		if off+l > len(rec) {
			return nil, fmt.Errorf("%w: truncated inline component %d", ErrBadRef, i)
		}
		if want == nil || want(tag, i) {
			spans = append(spans, dirSpan{off: off, end: off + l, idx: i, tag: tag})
		}
		off += l
	}
	s.spanScratch = spans
	return spans, nil
}

// layout returns the header and data page counts of a large object made
// of comps, and its total component bytes.
func (s *Store) layout(comps []Component) (headerPages, dataPages, total int) {
	eff := s.effSize()
	for _, c := range comps {
		total += len(c.Data)
	}
	headerPages = (dirPrologue + dirEntry*len(comps) + eff - 1) / eff
	dataPages = max((total+eff-1)/eff, 1)
	return headerPages, dataPages, total
}

// directory encodes the component directory of comps into the header
// scratch (free whenever no read is in progress).
func (s *Store) directory(comps []Component, total int) []byte {
	n := dirPrologue + dirEntry*len(comps)
	if cap(s.hdrScratch) < n {
		s.hdrScratch = make([]byte, n)
	}
	dir := s.hdrScratch[:n]
	binary.BigEndian.PutUint16(dir, uint16(len(comps)))
	binary.BigEndian.PutUint32(dir[2:], uint32(total))
	off := 0
	for i, c := range comps {
		base := dirPrologue + dirEntry*i
		dir[base] = c.Tag
		binary.BigEndian.PutUint32(dir[base+1:], uint32(off))
		binary.BigEndian.PutUint32(dir[base+5:], uint32(len(c.Data)))
		off += len(c.Data)
	}
	return dir
}

// objectWriter fills a large object's page payloads, visited in page
// order: the directory across the header pages, then the components back
// to back across the data pages, zeroing every byte past their end. The
// components go straight into the pages, never through a staging copy.
type objectWriter struct {
	dir         []byte
	headerPages int
	comps       []Component
	ci, co      int // next component, and how many of its bytes are written
}

func (w *objectWriter) fill(i int, payload []byte) {
	n := 0
	if i < w.headerPages {
		if off := i * len(payload); off < len(w.dir) {
			n = copy(payload, w.dir[off:])
		}
	} else {
		for n < len(payload) && w.ci < len(w.comps) {
			c := copy(payload[n:], w.comps[w.ci].Data[w.co:])
			n += c
			w.co += c
			if w.co == len(w.comps[w.ci].Data) {
				w.ci, w.co = w.ci+1, 0
			}
		}
	}
	clear(payload[n:])
}

func (s *Store) insertLarge(comps []Component) (Ref, error) {
	headerPages, dataPages, total := s.layout(comps)
	if headerPages > 0xFFFF || dataPages > 0xFFFF {
		return Ref{}, fmt.Errorf("longobj: object too large: %d header, %d data pages", headerPages, dataPages)
	}
	start, err := s.claimRun(headerPages + dataPages)
	if err != nil {
		return Ref{}, err
	}
	w := objectWriter{dir: s.directory(comps, total), headerPages: headerPages, comps: comps}
	images := make([][]byte, headerPages+dataPages)
	for i := range images {
		images[i] = make([]byte, s.dev.PageSize())
		w.fill(i, images[i][disk.SysHeaderSize:])
	}
	if err := s.dev.WriteRun(start, images); err != nil {
		return Ref{}, err
	}
	s.large++
	s.headerPages += headerPages
	s.dataPages += dataPages
	s.dataBytes += int64(total)
	return Ref{Start: start, HeaderPages: uint16(headerPages), DataPages: uint16(dataPages)}, nil
}

// dirEntryAt decodes directory entry i from the header byte stream.
func dirEntryAt(hdr []byte, i int) (tag uint8, off, length int, err error) {
	base := dirPrologue + dirEntry*i
	if base+dirEntry > len(hdr) {
		return 0, 0, 0, fmt.Errorf("%w: directory entry %d", ErrBadRef, i)
	}
	return hdr[base],
		int(binary.BigEndian.Uint32(hdr[base+1:])),
		int(binary.BigEndian.Uint32(hdr[base+5:])),
		nil
}

// chunkSize bounds how many pages are pinned at once; objects larger than
// the pool are processed run by run (extra I/O calls only arise for
// objects bigger than the whole cache, which the benchmark never creates).
func (s *Store) chunkSize() int {
	c := s.pool.Capacity() / 2
	if c < 1 {
		c = 1
	}
	return c
}

// visitPages fixes the given pages in bounded contiguous chunks, invokes
// visit with each page's payload (index into ids, payload view), and
// unfixes immediately after the chunk is consumed. Pages of one chunk are
// fetched with a single I/O call when contiguous on disk. dirty marks
// every visited page dirty.
func (s *Store) visitPages(ids []disk.PageID, dirty bool, visit func(i int, payload []byte)) error {
	chunk := s.chunkSize()
	for start := 0; start < len(ids); start += chunk {
		end := start + chunk
		if end > len(ids) {
			end = len(ids)
		}
		frames, err := s.pool.FixRun(ids[start:end])
		if err != nil {
			return err
		}
		for i, f := range frames {
			if dirty {
				s.pool.MarkDirty(f) // promotes a borrowed frame before visit mutates
			}
			visit(start+i, f.Data[disk.SysHeaderSize:])
		}
		for _, id := range ids[start:end] {
			if err := s.pool.Unfix(id, dirty); err != nil {
				return err
			}
		}
	}
	return nil
}

// readHeader fetches the header pages (one I/O call: "DASDBS uses separate
// I/O calls to retrieve the root page ... the additional header pages ...
// and the data pages") and returns the assembled directory bytes, backed
// by the header scratch.
func (s *Store) readHeader(ref Ref) ([]byte, error) {
	eff := s.effSize()
	need := int(ref.HeaderPages) * eff
	if cap(s.hdrScratch) < need {
		s.hdrScratch = make([]byte, need)
	}
	// The scratch is fully overwritten (every visited page copies eff
	// bytes) and only read until the caller returns — no call path reads
	// two headers at once.
	hdr := s.hdrScratch[:need]
	err := s.visitPages(s.pageIDs(ref.Start, int(ref.HeaderPages)), false, func(i int, payload []byte) {
		copy(hdr[i*eff:], payload)
	})
	if err != nil {
		return nil, err
	}
	return hdr, nil
}

// pageIDs returns the n consecutive page IDs from start, backed by the
// page-ID scratch.
func (s *Store) pageIDs(start disk.PageID, n int) []disk.PageID {
	ids := s.idScratch[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, start+disk.PageID(i))
	}
	s.idScratch = ids
	return ids
}

// dirSpan is one directory entry resolved to its interval: in the data
// area for a large object, in the record for a small one.
type dirSpan struct {
	off, end int
	idx      int
	tag      uint8
}

// ReadAll returns every component (DSM read path: header call + one call
// for the full contiguous data run). The returned components are freshly
// allocated and belong to the caller.
func (s *Store) ReadAll(ref Ref) ([]Component, error) {
	comps, _, err := s.read(ref, nil, true, false)
	return comps, err
}

// ReadAllShared transfers the whole object like ReadAll — the header and
// every data page, fixed in the same runs — but copies out only the
// components want selects (by tag and directory index; nil selects all),
// into per-store scratch: the returned slice and every component's Data
// are valid only until the next ReadAllShared or ReadParts call on this
// store. The storage models' fetch paths decode components into result
// objects immediately, so they ride on this variant, and a query that
// consumes one component of a DSM object pays that object's page
// transfer but not the copy of the rest.
func (s *Store) ReadAllShared(ref Ref, want func(tag uint8, idx int) bool) ([]Component, error) {
	comps, _, err := s.read(ref, want, true, true)
	return comps, err
}

// ReadParts returns the components selected by want (given tag and
// component index), reading only the data pages that hold them (DASDBS-DSM
// read path). For small objects the single shared page is read either way.
// The second result lists the selected component indices. Both results
// follow ReadAllShared's scratch contract: valid only until the next
// ReadAllShared or ReadParts call on this store.
func (s *Store) ReadParts(ref Ref, want func(tag uint8, idx int) bool) ([]Component, []int, error) {
	comps, spans, err := s.read(ref, want, false, true)
	if err != nil {
		return nil, nil, err
	}
	idxs := s.idxScratch[:0]
	for _, sp := range spans {
		idxs = append(idxs, sp.idx)
	}
	s.idxScratch = idxs
	return comps, idxs, nil
}

// components backs one component per span with a single block: per-store
// scratch for the shared contract, fresh allocations otherwise.
func (s *Store) components(spans []dirSpan, scratch bool) []Component {
	total := 0
	for _, sp := range spans {
		total += sp.end - sp.off
	}
	var comps []Component
	var block []byte
	if scratch {
		if cap(s.compScratch) < len(spans) {
			s.compScratch = make([]Component, len(spans)+8)
		}
		if cap(s.blockScratch) < total {
			s.blockScratch = make([]byte, total+total/2)
		}
		comps, block = s.compScratch[:len(spans)], s.blockScratch[:total]
	} else {
		comps, block = make([]Component, len(spans)), make([]byte, total)
	}
	pos := 0
	for k, sp := range spans {
		length := sp.end - sp.off
		comps[k] = Component{Tag: sp.tag, Data: block[pos : pos+length : pos+length]}
		pos += length
	}
	return comps
}

// read is the one object read path. It validates the whole directory,
// fixes the header pages and then either every data page (allPages, the
// DSM transfer) or only the data pages holding selected components (the
// DASDBS-DSM transfer), and copies out only the components want selects
// (nil selects all). Which pages are fixed never depends on want when
// allPages is set, so the paper counters of a DSM read do not depend on
// what the caller consumes. A small object is one view of its shared
// page either way. The spans of the selected components are returned
// alongside them.
func (s *Store) read(ref Ref, want func(tag uint8, idx int) bool, allPages, scratch bool) ([]Component, []dirSpan, error) {
	if ref.Small {
		// Copy straight out of the heap page view: no record-sized
		// staging copy, and the same single buffer fix as heap.Get.
		var comps []Component
		var spans []dirSpan
		err := s.shared.View(ref.RID, func(rec []byte) error {
			var err error
			if spans, err = s.inlineSpans(rec, want); err != nil {
				return err
			}
			comps = s.components(spans, scratch)
			for k, sp := range spans {
				copy(comps[k].Data, rec[sp.off:sp.end])
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return comps, spans, nil
	}
	hdr, err := s.readHeader(ref)
	if err != nil {
		return nil, nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	eff := s.effSize()
	dataLen := int(ref.DataPages) * eff
	spans := s.spanScratch[:0]
	for i := 0; i < n; i++ {
		tag, off, length, err := dirEntryAt(hdr, i)
		if err != nil {
			return nil, nil, err
		}
		if off+length > dataLen {
			return nil, nil, fmt.Errorf("%w: component %d beyond data", ErrBadRef, i)
		}
		if want == nil || want(tag, i) {
			spans = append(spans, dirSpan{off: off, end: off + length, idx: i, tag: tag})
		}
	}
	s.spanScratch = spans
	comps := s.components(spans, scratch)

	dataStart := ref.Start + disk.PageID(ref.HeaderPages)
	var ids []disk.PageID
	if allPages {
		ids = s.pageIDs(dataStart, int(ref.DataPages))
	} else {
		// The data pages any selected component touches, ascending and
		// each once.
		if cap(s.pageScratch) < int(ref.DataPages) {
			s.pageScratch = make([]bool, ref.DataPages)
		}
		touched := s.pageScratch[:ref.DataPages]
		clear(touched)
		for _, sp := range spans {
			for pg := sp.off / eff; sp.off < sp.end && pg*eff < sp.end; pg++ {
				touched[pg] = true
			}
		}
		ids = s.idScratch[:0]
		for pg, t := range touched {
			if t {
				ids = append(ids, dataStart+disk.PageID(pg))
			}
		}
		s.idScratch = ids
	}
	// Copy each visited page straight into the selected components it
	// feeds: every wanted byte is moved exactly once.
	err = s.visitPages(ids, false, func(p int, payload []byte) {
		pageLo := int(ids[p]-dataStart) * eff
		for k, sp := range spans {
			lo, hi := max(sp.off, pageLo), min(sp.end, pageLo+eff)
			if lo < hi {
				copy(comps[k].Data[lo-sp.off:], payload[lo-pageLo:hi-pageLo])
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return comps, spans, nil
}

// ReplaceAll overwrites the whole object in place (the paper's "replace
// entire tuple" update path used by DSM, NSM and DASDBS-NSM). The new
// component layout must occupy the same number of header and data pages;
// otherwise ErrResize is returned. Pages are marked dirty and written back
// at the next flush/overflow, so a batch of replacements costs one batched
// write (§5.3: "16.7 tuples are updated at the same time, which can be
// implemented in DASDBS as a single 'replace set of tuples' operation").
func (s *Store) ReplaceAll(ref Ref, comps []Component) error {
	if ref.Small {
		rec := encodeInline(comps)
		if len(rec) > page.Capacity(s.dev.PageSize()) {
			return fmt.Errorf("%w: small object grows beyond a page", ErrResize)
		}
		return s.shared.Update(ref.RID, rec)
	}
	headerPages, dataPages, total := s.layout(comps)
	if headerPages != int(ref.HeaderPages) || dataPages != int(ref.DataPages) {
		return fmt.Errorf("%w: %dh+%dd -> %dh+%dd", ErrResize,
			ref.HeaderPages, ref.DataPages, headerPages, dataPages)
	}
	w := objectWriter{dir: s.directory(comps, total), headerPages: headerPages, comps: comps}
	return s.visitPages(s.pageIDs(ref.Start, ref.Pages()), true, w.fill)
}

// Replace stores the new component set for an existing object. When the
// new layout fits the old page footprint the replacement happens in place
// (deferred writes, as ReplaceAll); otherwise — a large object changing
// its page count, or a small object outgrowing the free space of its
// shared page — the object is relocated: the old storage is released and
// a fresh object is inserted, whose new address is returned. Callers must
// adopt the returned Ref.
func (s *Store) Replace(ref Ref, comps []Component) (Ref, error) {
	err := s.ReplaceAll(ref, comps)
	if err == nil {
		return ref, nil
	}
	if !errors.Is(err, ErrResize) && !errors.Is(err, page.ErrPageFull) {
		return Ref{}, err
	}
	if ref.Small {
		if err := s.shared.Delete(ref.RID); err != nil {
			return Ref{}, err
		}
	} else {
		s.freeLarge(ref)
	}
	return s.Insert(comps)
}

// freeLarge releases a relocated large object: its accounting is undone
// and its page run enters the free-space map for recycling by a later
// insert.
func (s *Store) freeLarge(ref Ref) {
	s.large--
	s.headerPages -= int(ref.HeaderPages)
	s.dataPages -= int(ref.DataPages)
	s.freeRun(ref.Start, ref.Pages())
}

// freeRun inserts [start, start+n) into the free-space map, keeping it
// sorted by start and merging adjacent runs.
func (s *Store) freeRun(start disk.PageID, n int) {
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].start >= start })
	s.free = append(s.free, pageRun{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = pageRun{start: start, n: n}
	if i+1 < len(s.free) && s.free[i].start+disk.PageID(s.free[i].n) == s.free[i+1].start {
		s.free[i].n += s.free[i+1].n
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].start+disk.PageID(s.free[i-1].n) == s.free[i].start {
		s.free[i-1].n += s.free[i].n
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
	s.freedPages += n
}

// claimRun produces a contiguous run of n pages for a new large object:
// first fit from the free-space map, falling back to extending the device.
// A recycled run is purged from the buffer pool first — its frames, clean
// or dirty, describe the dead object and must not shadow the bulk write
// of the new one.
func (s *Store) claimRun(n int) (disk.PageID, error) {
	for i := range s.free {
		if s.free[i].n < n {
			continue
		}
		start := s.free[i].start
		if s.free[i].n == n {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i].start += disk.PageID(n)
			s.free[i].n -= n
		}
		s.freedPages -= n
		ids := make([]disk.PageID, n)
		for j := range ids {
			ids[j] = start + disk.PageID(j)
		}
		if err := s.pool.Drop(ids); err != nil {
			// Return the run to the map: a failed claim (a still-pinned
			// stale frame) must not leak the pages out of the free space.
			s.freeRun(start, n)
			return disk.InvalidPage, err
		}
		return start, nil
	}
	return s.dev.Allocate(n)
}

// FreedPages returns the number of pages currently sitting in the
// free-space map: dead space released by relocating replacements that the
// next large-object inserts will recycle.
func (s *Store) FreedPages() int { return s.freedPages }

// ChangeComponent overwrites component idx in place with same-length data
// and writes the affected pages through immediately (the DASDBS "change
// attribute" page-pool behaviour of §5.3: "each update operation allocates
// a page pool, of which all pages are written ... even though the page
// pool is only a single page in size"). Returns the number of pages
// written through.
func (s *Store) ChangeComponent(ref Ref, idx int, data []byte) (int, error) {
	if ref.Small {
		// One view of the page (the components are copied out, nothing
		// aliases the frame), dropped before Update re-fixes the page —
		// the fix count stays identical to a Get-then-Update sequence.
		comps, err := s.ReadAll(ref)
		if err != nil {
			return 0, err
		}
		if idx < 0 || idx >= len(comps) {
			return 0, fmt.Errorf("%w: %d of %d", ErrBadComp, idx, len(comps))
		}
		if len(data) != len(comps[idx].Data) {
			return 0, fmt.Errorf("%w: %d -> %d bytes", ErrSameLen, len(comps[idx].Data), len(data))
		}
		comps[idx].Data = data
		if err := s.shared.Update(ref.RID, encodeInline(comps)); err != nil {
			return 0, err
		}
		if err := s.pool.FlushPages([]disk.PageID{ref.RID.Page}); err != nil {
			return 0, err
		}
		return 1, nil
	}
	hdr, err := s.readHeader(ref)
	if err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	if idx < 0 || idx >= n {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadComp, idx, n)
	}
	_, off, length, err := dirEntryAt(hdr, idx)
	if err != nil {
		return 0, err
	}
	eff := s.effSize()
	if off+length > int(ref.DataPages)*eff {
		return 0, fmt.Errorf("%w: component %d beyond data", ErrBadRef, idx)
	}
	if len(data) != length {
		return 0, fmt.Errorf("%w: %d -> %d bytes", ErrSameLen, length, len(data))
	}
	var ids []disk.PageID
	firstPg := 0
	if length > 0 {
		firstPg = off / eff
		last := (off + length - 1) / eff
		for pg := firstPg; pg <= last; pg++ {
			ids = append(ids, ref.Start+disk.PageID(int(ref.HeaderPages)+pg))
		}
	}
	if len(ids) == 0 {
		return 0, nil
	}
	err = s.visitPages(ids, true, func(i int, payload []byte) {
		pg := firstPg + i
		pageStart := pg * eff
		segStart := max(off, pageStart)
		segEnd := min(off+length, pageStart+eff)
		copy(payload[segStart-pageStart:segEnd-pageStart], data[segStart-off:segEnd-off])
	})
	if err != nil {
		return 0, err
	}
	if err := s.pool.FlushPages(ids); err != nil {
		return 0, err
	}
	return len(ids), nil
}

// AppendState serializes the store's directory state — object and page
// accounting plus the free-space map — for a database snapshot, followed
// by the shared heap's state. The page images themselves travel with the
// device arena.
func (s *Store) AppendState(b []byte) []byte {
	b = wire.AppendU64(b, uint64(s.large))
	b = wire.AppendU64(b, uint64(s.headerPages))
	b = wire.AppendU64(b, uint64(s.dataPages))
	b = wire.AppendU64(b, uint64(s.dataBytes))
	b = wire.AppendU64(b, uint64(s.freedPages))
	b = wire.AppendU32(b, uint32(len(s.free)))
	for _, r := range s.free {
		b = wire.AppendU32(b, uint32(r.start))
		b = wire.AppendU32(b, uint32(r.n))
	}
	return s.shared.AppendState(b)
}

// RestoreState rebuilds the directory state from AppendState output, over
// a device that already holds the page images. The store must be empty.
func (s *Store) RestoreState(r *wire.Reader) error {
	if s.large != 0 || s.shared.NumRecords() != 0 {
		return errors.New("longobj: restore into non-empty store")
	}
	s.large = int(r.U64())
	s.headerPages = int(r.U64())
	s.dataPages = int(r.U64())
	s.dataBytes = int64(r.U64())
	s.freedPages = int(r.U64())
	n := r.Len(8) // u32 start + u32 length per free run
	s.free = make([]pageRun, n)
	for i := range s.free {
		s.free[i] = pageRun{start: disk.PageID(r.U32()), n: int(r.U32())}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("longobj: %w", err)
	}
	return s.shared.RestoreState(r)
}

// AppendRef serializes a Ref (9 bytes, either variant).
func AppendRef(b []byte, ref Ref) []byte {
	if ref.Small {
		b = wire.AppendU8(b, 1)
		b = wire.AppendU32(b, uint32(ref.RID.Page))
		b = wire.AppendU16(b, ref.RID.Slot)
		return wire.AppendU16(b, 0)
	}
	b = wire.AppendU8(b, 0)
	b = wire.AppendU32(b, uint32(ref.Start))
	b = wire.AppendU16(b, ref.HeaderPages)
	return wire.AppendU16(b, ref.DataPages)
}

// ReadRef consumes a Ref appended by AppendRef.
func ReadRef(r *wire.Reader) Ref {
	small := r.U8() == 1
	a := r.U32()
	h := r.U16()
	d := r.U16()
	if small {
		return Ref{Small: true, RID: heap.RID{Page: disk.PageID(a), Slot: h}}
	}
	return Ref{Start: disk.PageID(a), HeaderPages: h, DataPages: d}
}
