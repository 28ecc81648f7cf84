package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// benchDevice is the append benchmarks' Device: a sink that records
// only the log's length and its synced prefix, so a commit costs what the
// log itself does — framing, checksums, the group-commit handshake — and
// nothing that grows with the log. (memDevice, the crash battery's
// device, keeps the bytes and copies the whole image on every Sync to
// model a crash; under a benchmark that made ns/op and B/op grow with
// b.N.) The benchmarks never read the log back: Open replays an empty
// device.
type benchDevice struct {
	mu           sync.Mutex
	size, synced int64
}

func (d *benchDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < d.size {
		return 0, errors.New("benchDevice: the benchmarks never read back")
	}
	return 0, io.EOF
}

func (d *benchDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.size = max(d.size, off+int64(len(p)))
	return len(p), nil
}

func (d *benchDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = d.size
	return nil
}

func (d *benchDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.size = size
	d.synced = min(d.synced, size)
	return nil
}

func benchBatch(pages, pageBytes int) ([]PageRecord, CommitRecord) {
	recs := make([]PageRecord, pages)
	img := bytes.Repeat([]byte{0x5A}, pageBytes)
	for i := range recs {
		recs[i] = PageRecord{Model: 1, Page: uint32(i), Image: img}
	}
	return recs, CommitRecord{Model: 1, NumPages: uint32(pages), Meta: bytes.Repeat([]byte{0x01}, 128)}
}

// BenchmarkWALAppend measures the encode+append path of one commit batch
// of 8 2 KiB pages against a sink device whose sync is free, so this is
// the log's own framing and checksums.
func BenchmarkWALAppend(b *testing.B) {
	dev := &benchDevice{}
	l, err := Open(dev, nil)
	if err != nil {
		b.Fatal(err)
	}
	pages, c := benchBatch(8, 2048)
	var total int64
	for _, p := range pages {
		total += int64(len(p.Image))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Commit(pages, c); err != nil {
			b.Fatal(err)
		}
		if l.Size() > 64<<20 {
			b.StopTimer()
			if err := l.Reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkWALGroupCommit measures concurrent committers batching behind
// shared sync waves — the serving-path commit shape.
func BenchmarkWALGroupCommit(b *testing.B) {
	dev := &benchDevice{}
	l, err := Open(dev, nil)
	if err != nil {
		b.Fatal(err)
	}
	pages, c := benchBatch(4, 2048)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Commit(pages, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALReplay measures recovery: scanning, checksumming and
// applying a log of 512 committed batches.
func BenchmarkWALReplay(b *testing.B) {
	dev := newMemDevice(nil)
	l, err := Open(dev, nil)
	if err != nil {
		b.Fatal(err)
	}
	pages, c := benchBatch(4, 2048)
	for i := 0; i < 512; i++ {
		if _, err := l.Commit(pages, c); err != nil {
			b.Fatal(err)
		}
	}
	img := dev.bytes()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		if _, err := Open(newMemDevice(img), func(CommitRecord, []PageRecord) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != 512 {
			b.Fatalf("replayed %d batches", n)
		}
	}
}
