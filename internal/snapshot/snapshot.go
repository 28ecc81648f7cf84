package snapshot

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
)

// Version is the current container format version. Version 2 added the
// WAL watermark (Info.Seq) to the header; version-1 files are rejected
// with ErrFormat and regenerated.
const Version = 2

// maxPageSize bounds the page size a snapshot entry may declare, so a
// corrupt header can neither overflow the arena-size arithmetic nor ask
// for an absurd allocation.
const maxPageSize = 1 << 24

var magic = [4]byte{'C', 'O', 'D', 'B'}

var (
	// ErrFormat reports a malformed or wrong-version snapshot file.
	ErrFormat = errors.New("snapshot: invalid snapshot file")
	// ErrNoModel reports that the requested storage model is not in the
	// snapshot.
	ErrNoModel = errors.New("snapshot: model not in snapshot")
)

// Info describes a snapshot file's contents.
type Info struct {
	// Gen is the generator configuration the snapshot was built from.
	Gen cobench.Config
	// Seq is the last acknowledged WAL commit sequence the arenas include:
	// 0 for a snapshot written by Write (cogen -db), the log's watermark
	// for a checkpoint written by WriteBase.
	Seq uint64
	// Kinds lists the stored models in file order.
	Kinds []store.Kind
	// PageSize is the device page size shared by all stored models.
	PageSize int
}

// appendHeader appends the container header for count models.
func appendHeader(b []byte, gen cobench.Config, seq uint64, count int) ([]byte, error) {
	genJSON, err := json.Marshal(gen)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode gen config: %w", err)
	}
	b = append(b, magic[:]...)
	b = binary.BigEndian.AppendUint16(b, Version)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(genJSON)))
	b = append(b, genJSON...)
	return binary.BigEndian.AppendUint16(b, uint16(count)), nil
}

// appendEntry appends one model's entry header; its meta blob and arena
// follow it in the file.
func appendEntry(b []byte, k store.Kind, pageSize, numPages, metaLen int) []byte {
	b = append(b, byte(k))
	b = binary.BigEndian.AppendUint32(b, uint32(pageSize))
	b = binary.BigEndian.AppendUint32(b, uint32(numPages))
	return binary.BigEndian.AppendUint32(b, uint32(metaLen))
}

// writeFileAtomic streams content into a temp file in path's directory,
// makes it durable and renames it over path: a reader (or a crash) sees
// either the old file or the complete new one, never a torn mix.
func writeFileAtomic(path string, write func(w *bufio.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("snapshot: create: %w", err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	w := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// CreateTemp's restrictive 0600 mode would survive the rename; align
	// with ordinary data files so another user can replay the snapshot.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir makes a rename durable (best effort: some filesystems refuse
// directory fsync; a checkpoint's WAL covers the gap there).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Write serializes the loaded models into path (atomically: a temp file
// in the same directory is renamed over the target) with WAL watermark 0.
// Dirty pages are flushed into the device first, so the arena is the
// authoritative state.
func Write(path string, gen cobench.Config, models ...store.Model) error {
	if len(models) == 0 {
		return errors.New("snapshot: no models to write")
	}
	hdr, err := appendHeader(nil, gen, 0, len(models))
	if err != nil {
		return err
	}
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		for _, m := range models {
			if err := m.Flush(); err != nil {
				return fmt.Errorf("snapshot: flush %s: %w", m.Kind(), err)
			}
			meta, err := m.SnapshotMeta()
			if err != nil {
				return fmt.Errorf("snapshot: meta %s: %w", m.Kind(), err)
			}
			dev := m.Engine().Dev
			if _, err := w.Write(appendEntry(nil, m.Kind(), dev.PageSize(), dev.NumPages(), len(meta))); err != nil {
				return err
			}
			if _, err := w.Write(meta); err != nil {
				return err
			}
			if err := dev.DumpTo(w); err != nil {
				return fmt.Errorf("snapshot: dump %s arena: %w", m.Kind(), err)
			}
		}
		return nil
	})
}

// WriteBase writes the current generation of a shared base into path as
// a single-model snapshot recording seq as its WAL watermark: the
// checkpoint form of the durable commit path (see CheckpointPath). The
// arena goes out in one write straight from the base's memory; gen is
// the generator configuration of the snapshot the base descends from.
func WriteBase(path string, gen cobench.Config, seq uint64, b *store.SharedBase) error {
	_, numPages, meta, arena := b.SnapshotState()
	defer arena.Release()
	if got, want := arena.Len(), numPages*b.PageSize(); got != want {
		return fmt.Errorf("snapshot: base %s arena of %d bytes, want %d", b.Kind(), got, want)
	}
	hdr, err := appendHeader(nil, gen, seq, 1)
	if err != nil {
		return err
	}
	hdr = appendEntry(hdr, b.Kind(), b.PageSize(), numPages, len(meta))
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		for _, p := range [][]byte{hdr, meta, arena.Bytes()} {
			if _, err := w.Write(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// Slug returns the file-name slug of a storage model (the short aliases
// the CLI accepts: dsm, ddsm, nsm, nsmx, dnsm).
func Slug(k store.Kind) string {
	switch k {
	case store.DSM:
		return "dsm"
	case store.DASDBSDSM:
		return "ddsm"
	case store.NSM:
		return "nsm"
	case store.NSMIndex:
		return "nsmx"
	case store.DASDBSNSM:
		return "dnsm"
	default:
		return fmt.Sprintf("kind%d", byte(k))
	}
}

// CheckpointPath returns the path of a model's checkpoint in a commit-log
// directory: dir/<slug>.codb, one single-model snapshot per model.
func CheckpointPath(dir string, k store.Kind) string {
	return filepath.Join(dir, Slug(k)+".codb")
}

// entry is one model's position inside a snapshot file.
type entry struct {
	kind     store.Kind
	pageSize int
	numPages int
	metaLen  int
	metaOff  int64 // file offset of the meta blob; arena follows
}

// parse reads the header and the entry table. Meta blobs and arenas are
// skipped with Seek, so describing or opening one model of a paper-scale
// snapshot never streams the other models' arenas through memory.
func parse(f *os.File) (Info, []entry, error) {
	var off int64
	readN := func(n int) ([]byte, error) {
		b := make([]byte, n)
		if _, err := io.ReadFull(f, b); err != nil {
			return nil, fmt.Errorf("%w: truncated at byte %d", ErrFormat, off)
		}
		off += int64(n)
		return b, nil
	}
	head, err := readN(4)
	if err != nil {
		return Info{}, nil, err
	}
	if [4]byte(head) != magic {
		return Info{}, nil, fmt.Errorf("%w: bad magic %q", ErrFormat, head)
	}
	vb, err := readN(2)
	if err != nil {
		return Info{}, nil, err
	}
	if v := binary.BigEndian.Uint16(vb); v != Version {
		return Info{}, nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, v, Version)
	}
	lb, err := readN(8 + 4)
	if err != nil {
		return Info{}, nil, err
	}
	seq := binary.BigEndian.Uint64(lb)
	genLen := int(binary.BigEndian.Uint32(lb[8:]))
	if genLen > 1<<20 {
		return Info{}, nil, fmt.Errorf("%w: gen config of %d bytes", ErrFormat, genLen)
	}
	genJSON, err := readN(genLen)
	if err != nil {
		return Info{}, nil, err
	}
	info := Info{Seq: seq}
	if err := json.Unmarshal(genJSON, &info.Gen); err != nil {
		return Info{}, nil, fmt.Errorf("%w: gen config: %v", ErrFormat, err)
	}
	cb, err := readN(2)
	if err != nil {
		return Info{}, nil, err
	}
	count := int(binary.BigEndian.Uint16(cb))
	entries := make([]entry, 0, count)
	for i := 0; i < count; i++ {
		hdr, err := readN(1 + 4 + 4 + 4)
		if err != nil {
			return Info{}, nil, err
		}
		e := entry{
			kind:     store.Kind(hdr[0]),
			pageSize: int(binary.BigEndian.Uint32(hdr[1:])),
			numPages: int(binary.BigEndian.Uint32(hdr[5:])),
			metaLen:  int(binary.BigEndian.Uint32(hdr[9:])),
			metaOff:  off,
		}
		if e.pageSize <= disk.SysHeaderSize || e.pageSize > maxPageSize || e.numPages < 0 {
			return Info{}, nil, fmt.Errorf("%w: entry %d geometry: page size %d, %d pages", ErrFormat, i, e.pageSize, e.numPages)
		}
		if !slices.Contains(store.AllKinds(), e.kind) {
			return Info{}, nil, fmt.Errorf("%w: entry %d unknown model kind %d", ErrFormat, i, byte(e.kind))
		}
		skip := int64(e.metaLen) + int64(e.numPages)*int64(e.pageSize)
		if _, err := f.Seek(skip, io.SeekCurrent); err != nil {
			return Info{}, nil, fmt.Errorf("%w: entry %d: %v", ErrFormat, i, err)
		}
		off += skip
		entries = append(entries, e)
		info.Kinds = append(info.Kinds, e.kind)
		info.PageSize = e.pageSize
	}
	// Seek tolerates offsets past EOF; verify the last entry actually fits.
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return Info{}, nil, err
	}
	if end < off {
		return Info{}, nil, fmt.Errorf("%w: file ends at %d, entries need %d", ErrFormat, end, off)
	}
	return info, entries, nil
}

// Stat describes a snapshot file without restoring anything.
func Stat(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	info, _, err := parse(f)
	return info, err
}

// Open restores the model of the given kind from the snapshot. The
// options select the runtime knobs (buffer size, policy, backend); the
// page size comes from the snapshot and must not conflict with a non-zero
// o.PageSize. The restored model starts with a cold cache and zeroed
// counters, exactly like a freshly loaded one.
func Open(path string, k store.Kind, o store.Options) (store.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, entries, err := parse(f)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.kind != k {
			continue
		}
		if o.PageSize != 0 && o.PageSize != e.pageSize {
			return nil, fmt.Errorf("snapshot: page size %d requested, snapshot has %d", o.PageSize, e.pageSize)
		}
		if o.CountIndexIO {
			return nil, fmt.Errorf("snapshot: counted index I/O is rebuilt per run and cannot be restored")
		}
		o.PageSize = e.pageSize
		eng, err := store.NewEngine(o)
		if err != nil {
			return nil, err
		}
		m, err := restoreInto(f, e, k, eng)
		if err != nil {
			eng.Close()
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("%w: %s in %s", ErrNoModel, k, filepath.Base(path))
}

// OpenBase lifts one model of the snapshot into a store.SharedBase
// without copying the arena through the heap where the platform allows
// it: the directory metadata is read normally (it is small), while the
// arena region of the .codb file is mmap'ed read-only in place
// (disk.MapBaseArena; on platforms without mmap support it degrades
// to the heap copy of OpenBaseHeap). Every engine opened from the base
// afterwards is a copy-on-write view of that single mapping, so a
// paper-scale `-db x.codb -backend cow` run starts with near-zero
// resident arena and pages the base in on demand — with the same
// measurement guarantee as Open (cold cache, zeroed counters,
// bit-identical counters to a fresh load).
//
// The snapshot file must not be truncated or rewritten in place while the
// base is alive; replacing it via Write (atomic rename) is safe, the
// mapping pins the old inode. Release the base (store.SharedBase.Release,
// after every view closed) to drop the mapping.
func OpenBase(path string, k store.Kind) (*store.SharedBase, error) {
	return openBase(path, k, disk.CanMapBase)
}

// OpenBaseHeap is OpenBase with the arena copied into the heap
// unconditionally: the pre-mmap behaviour, kept for callers that want the
// base to survive snapshot-file deletion and for the mem-vs-mmap halves
// of the determinism tests.
func OpenBaseHeap(path string, k store.Kind) (*store.SharedBase, error) {
	return openBase(path, k, false)
}

func openBase(path string, k store.Kind, mapped bool) (*store.SharedBase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, entries, err := parse(f)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.kind != k {
			continue
		}
		meta := make([]byte, e.metaLen)
		if _, err := f.ReadAt(meta, e.metaOff); err != nil {
			return nil, fmt.Errorf("%w: meta of %s", ErrFormat, e.kind)
		}
		arenaBytes := e.numPages * e.pageSize
		arenaOff := e.metaOff + int64(e.metaLen)
		var arena *disk.BaseArena
		if mapped {
			// Map through the descriptor the offsets were parsed from: if
			// the path was atomically replaced since Open, reopening it
			// would pair this file's offsets with another file's bytes.
			arena, err = disk.MapBaseArena(f, arenaOff, arenaBytes)
			if err != nil {
				return nil, fmt.Errorf("snapshot: map arena of %s: %w", e.kind, err)
			}
		} else {
			buf := make([]byte, arenaBytes)
			if _, err := f.ReadAt(buf, arenaOff); err != nil {
				return nil, fmt.Errorf("%w: arena of %s", ErrFormat, e.kind)
			}
			arena = disk.NewBaseArena(buf)
		}
		base, err := store.NewSharedBase(k, e.pageSize, meta, arena)
		if err != nil {
			arena.Release()
			return nil, err
		}
		return base, nil
	}
	return nil, fmt.Errorf("%w: %s in %s", ErrNoModel, k, filepath.Base(path))
}

func restoreInto(f *os.File, e entry, k store.Kind, eng *store.Engine) (store.Model, error) {
	if _, err := f.Seek(e.metaOff, io.SeekStart); err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	meta := make([]byte, e.metaLen)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, fmt.Errorf("%w: meta of %s", ErrFormat, e.kind)
	}
	if err := eng.Dev.Restore(r, e.numPages); err != nil {
		return nil, fmt.Errorf("snapshot: restore %s arena: %w", e.kind, err)
	}
	m := store.NewWithEngine(k, eng)
	if err := m.RestoreMeta(meta); err != nil {
		return nil, fmt.Errorf("snapshot: restore %s meta: %w", e.kind, err)
	}
	return m, nil
}
