package snapshot_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
)

// fuzzSeed writes a one-model snapshot of a three-station extension
// (one sightseeing at most, so the file stays a few KB) and returns its
// bytes.
func fuzzSeed(tb testing.TB, k store.Kind, pageSize int) []byte {
	tb.Helper()
	cfg := cobench.DefaultConfig().WithN(3)
	cfg.MaxSeeing = 1
	stations, err := cobench.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := store.New(k, store.Options{BufferPages: 16, PageSize: pageSize})
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Engine().Close()
	if err := m.Load(stations); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "seed.codb")
	if err := snapshot.Write(path, cfg, m); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzOpenSnapshot feeds arbitrary bytes through everything a restart
// does with a .codb file — Stat, then OpenBaseHeap for every listed
// model, then a view over each base (which restores the model's
// directory metadata). Corrupt input must come back as an error; a
// panic or a hang is a bug. The committed corpus holds one-model
// snapshots of a three-station extension (DSM at the paper's page size,
// DASDBS-NSM at 512 bytes) and unknown-kind, the DSM file with a model
// kind byte no storage model has — which used to pass Stat and
// OpenBaseHeap and then panic in the view's model constructor. The seeds
// below add the same files in the current format, a v1 rendering and
// truncations. Keep seeds a few KB: each exec writes and parses the
// file, and minimizing a large interesting input stalls the fuzzer.
func FuzzOpenSnapshot(f *testing.F) {
	for _, seed := range [][]byte{fuzzSeed(f, store.DSM, disk.DefaultPageSize), fuzzSeed(f, store.DASDBSNSM, 512)} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:40])
		v1 := binary.BigEndian.AppendUint16(append([]byte(nil), seed[:4]...), 1)
		f.Add(append(v1, seed[4+2+8:]...))
	}

	path := filepath.Join(f.TempDir(), "fuzz.codb")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := snapshot.Stat(path)
		if err != nil {
			return
		}
		for _, k := range info.Kinds {
			base, err := snapshot.OpenBaseHeap(path, k)
			if err != nil {
				continue
			}
			if v, err := base.NewView(store.Options{BufferPages: 8}); err == nil {
				v.Close()
			}
			base.Release()
		}
	})
}

// TestOpenSnapshotRejectsCorruptGeometry pins the header checks that keep
// a corrupt entry from reaching code that trusts it: a page size no
// larger than the system header (the device would refuse it with a
// panic), one large enough to overflow the arena arithmetic, and a model
// kind no storage model has.
func TestOpenSnapshotRejectsCorruptGeometry(t *testing.T) {
	good := fuzzSeed(t, store.NSM, disk.DefaultPageSize)
	path := filepath.Join(t.TempDir(), "x.codb")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := snapshot.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The single entry header follows the fixed header and the gen JSON:
	// u8 kind | u32 pageSize | u32 numPages | u32 metaLen.
	genLen := int(binary.BigEndian.Uint32(good[4+2+8:]))
	entry := 4 + 2 + 8 + 4 + genLen + 2
	if got := store.Kind(good[entry]); got != info.Kinds[0] {
		t.Fatalf("entry offset wrong: kind byte %d", got)
	}
	for name, corrupt := range map[string]func(b []byte){
		"page size 0":          func(b []byte) { binary.BigEndian.PutUint32(b[entry+1:], 0) },
		"page size 36":         func(b []byte) { binary.BigEndian.PutUint32(b[entry+1:], disk.SysHeaderSize) },
		"page size 4 GiB":      func(b []byte) { binary.BigEndian.PutUint32(b[entry+1:], 0xFFFFFFFF) },
		"unknown kind":         func(b []byte) { b[entry] = 0xEE },
		"truncated entry":      func(b []byte) { binary.BigEndian.PutUint32(b[entry+5:], 0xFFFFFFFF) },
		"unsupported version3": func(b []byte) { binary.BigEndian.PutUint16(b[4:], 3) },
	} {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			corrupt(b)
			p := filepath.Join(t.TempDir(), "bad.codb")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.Stat(p); err == nil {
				t.Fatal("corrupt header accepted")
			}
			if _, err := snapshot.OpenBaseHeap(p, info.Kinds[0]); err == nil {
				t.Fatal("OpenBaseHeap accepted a corrupt header")
			}
		})
	}
}
