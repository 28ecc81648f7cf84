package disk

import (
	"fmt"
	"sync/atomic"
)

// BaseArena is an immutable page arena shared by any number of COW
// backends: the frozen state of one loaded database. Once constructed it
// is never written again — every COW overlay layered on top observes the
// same bytes forever, which is what lets the parallel experiment matrix
// hand each worker a view of one loaded extension instead of a private
// copy. A nil *BaseArena behaves as an empty base.
//
// A base is reference-counted so that it can outlive the engine that
// built it and be shared by a cache across many views: construction hands
// the creator one reference, every COW backend opened over the base takes
// another (released by its Close), and the backing storage — for a
// heap base the slice, for an mmap-backed base the file mapping — is
// released only when the last reference goes. Releasing is what makes the
// mmap variant safe: no view can ever observe an unmapped arena.
type BaseArena struct {
	data   []byte
	refs   atomic.Int64
	mapped bool
	unmap  func() error // releases the file mapping (mapped bases only)
}

// NewBaseArena freezes data into a shared base holding one reference,
// owned by the caller. The caller hands over ownership: the slice must
// not be mutated afterwards.
func NewBaseArena(data []byte) *BaseArena {
	a := &BaseArena{data: data}
	a.refs.Store(1)
	return a
}

// Len returns the base arena length in bytes.
func (a *BaseArena) Len() int {
	if a == nil {
		return 0
	}
	return len(a.data)
}

// Bytes exposes the frozen arena for inspection (checksums, dumps).
// Callers must treat the slice as read-only and must hold a reference
// (for a released mapped base the slice is gone).
func (a *BaseArena) Bytes() []byte {
	if a == nil {
		return nil
	}
	return a.data
}

// Mapped reports whether the arena is a read-only file mapping (pages
// faulted in from the snapshot file on demand) rather than a heap copy.
func (a *BaseArena) Mapped() bool { return a != nil && a.mapped }

// Refs returns the current reference count (diagnostics and tests).
func (a *BaseArena) Refs() int {
	if a == nil {
		return 0
	}
	return int(a.refs.Load())
}

// Retain takes one additional reference and returns the arena (nil-safe,
// so call sites can thread a possibly-empty base without branching).
func (a *BaseArena) Retain() *BaseArena {
	if a != nil {
		a.refs.Add(1)
	}
	return a
}

// Release drops one reference. When the last reference goes the backing
// storage is released: a heap base drops its slice, an mmap-backed base
// unmaps the snapshot file region. Releasing more often than retained is
// a bug and reported as an error.
func (a *BaseArena) Release() error {
	if a == nil {
		return nil
	}
	switch n := a.refs.Add(-1); {
	case n > 0:
		return nil
	case n < 0:
		return fmt.Errorf("disk: base arena over-released (refs %d)", n)
	}
	a.data = nil
	if a.unmap != nil {
		unmap := a.unmap
		a.unmap = nil
		return unmap()
	}
	return nil
}

// cowBackend is a copy-on-write arena: reads fall through to the shared
// immutable base, the first write to a page materializes a private copy in
// the overlay. Growth past the base is free until written (fresh pages
// read as zero straight from nowhere), so an engine over a large shared
// base costs only the pages it actually dirties.
type cowBackend struct {
	base *BaseArena
	gran int      // overlay granularity in bytes (the device page size)
	size int      // logical arena length
	over [][]byte // overlay page images indexed by page number; nil = base

	overlaid int      // number of materialized overlay pages
	freeImgs [][]byte // page images recycled by reset, ready for reuse
}

// NewCOWBackend layers a private overlay over base (nil means an empty
// base). pageBytes is the copy-on-write granularity — the device page
// size; 0 means DefaultPageSize. The arena starts at the base length, so
// a device opened over it adopts every base page. The backend takes one
// reference on the base, released by its Close — the base therefore
// cannot be released under a live view.
func NewCOWBackend(base *BaseArena, pageBytes int) Backend {
	if pageBytes <= 0 {
		pageBytes = DefaultPageSize
	}
	return &cowBackend{base: base.Retain(), gran: pageBytes, size: base.Len()}
}

func (b *cowBackend) Len() int { return b.size }

func (b *cowBackend) Grow(n int) error {
	if n > b.size {
		b.size = n
	}
	return nil
}

// overlayPage returns the overlay image of page pg, or nil.
func (b *cowBackend) overlayPage(pg int) []byte {
	if pg < len(b.over) {
		return b.over[pg]
	}
	return nil
}

func (b *cowBackend) ReadAt(p []byte, off int) error {
	if err := checkRange(off, len(p), b.size); err != nil {
		return err
	}
	base := b.base.Bytes()
	for len(p) > 0 {
		pg, po := off/b.gran, off%b.gran
		n := b.gran - po
		if n > len(p) {
			n = len(p)
		}
		if img := b.overlayPage(pg); img != nil {
			copy(p[:n], img[po:po+n])
		} else if off < len(base) {
			m := len(base) - off
			if m > n {
				m = n
			}
			copy(p[:m], base[off:off+m])
			clear(p[m:n]) // grown tail beyond the base reads as zero
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
	return nil
}

func (b *cowBackend) WriteAt(p []byte, off int) error {
	if err := checkRange(off, len(p), b.size); err != nil {
		return err
	}
	base := b.base.Bytes()
	for len(p) > 0 {
		pg, po := off/b.gran, off%b.gran
		n := b.gran - po
		if n > len(p) {
			n = len(p)
		}
		img := b.overlayPage(pg)
		if img == nil {
			if k := len(b.freeImgs); k > 0 {
				img = b.freeImgs[k-1]
				b.freeImgs = b.freeImgs[:k-1]
			} else {
				img = make([]byte, b.gran)
			}
			if n < b.gran {
				// Partial-page write: materialize the underlying content
				// first so the untouched bytes of the page survive (and,
				// for a recycled image, no stale bytes either). A
				// full-page write (the device's normal unit) skips this.
				lo := pg * b.gran
				var m int
				if lo < len(base) {
					m = copy(img, base[lo:])
				}
				clear(img[m:])
			}
			if pg >= len(b.over) {
				grown := make([][]byte, (pg+1)*2)
				copy(grown, b.over)
				b.over = grown
			}
			b.over[pg] = img
			b.overlaid++
		}
		copy(img[po:po+n], p[:n])
		p = p[n:]
		off += n
	}
	return nil
}

// StablePage implements StablePager: a materialized page shares its
// overlay image, an unmaterialized one inside the base shares the base
// bytes directly — the zero-copy read path the whole COW design exists
// for. Grown-but-unwritten tail pages (which read as zero) and ranges
// spanning a page boundary stay on ReadAt. Overlay images are recycled by
// reset(), so the stability contract's reset clause is load-bearing here:
// every borrower must be gone before the view resets (the pool's
// Discard-before-ResetView ordering).
func (b *cowBackend) StablePage(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > b.size {
		return nil, false
	}
	pg, po := off/b.gran, off%b.gran
	if po+n > b.gran {
		return nil, false
	}
	if img := b.overlayPage(pg); img != nil {
		return img[po : po+n : po+n], true
	}
	if base := b.base.Bytes(); off+n <= len(base) {
		return base[off : off+n : off+n], true
	}
	return nil, false
}

// reset drops every overlay page and truncates growth past the base, so
// the backend reads as the pristine shared base again. The overlay index
// keeps its capacity and the page images move to a free list (view
// recycling re-dirties a similar working set, so the next request's
// writes materialize pages without allocating).
func (b *cowBackend) reset() {
	for i, img := range b.over {
		if img != nil {
			b.freeImgs = append(b.freeImgs, img)
			b.over[i] = nil
		}
	}
	b.overlaid = 0
	b.size = b.base.Len()
}

// Close releases the overlay and the backend's reference on the shared
// base. Other engines keep reading through the base; only when the last
// reference (views plus the owner handle) goes is the base storage —
// heap slice or snapshot file mapping — actually released.
func (b *cowBackend) Close() error {
	base := b.base
	b.over = nil
	b.overlaid = 0
	b.freeImgs = nil
	b.base = nil
	b.size = 0
	return base.Release()
}

// COWStats describes the memory split of a COW backend.
type COWStats struct {
	// BaseBytes is the size of the shared immutable base arena.
	BaseBytes int
	// OverlayPages is the number of privately materialized pages.
	OverlayPages int
	// OverlayBytes is the private overlay memory (OverlayPages × page).
	OverlayBytes int
}

// COWStatsOf reports overlay usage when b is a COW backend, seeing
// through any stack of wrapping backends (fault injection).
func COWStatsOf(b Backend) (COWStats, bool) {
	c, ok := asCOW(b)
	if !ok {
		return COWStats{}, false
	}
	return COWStats{
		BaseBytes:    c.base.Len(),
		OverlayPages: c.overlaid,
		OverlayBytes: c.overlaid * c.gran,
	}, true
}
