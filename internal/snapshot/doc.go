// Package snapshot implements the .codb database snapshot format: a
// container holding, per storage model, the raw device arena (every page
// image) plus the model's directory metadata. Opening a snapshot restores
// a loaded database without regenerating or reloading the benchmark
// extension — and because the restored arena and directories are
// bit-identical to the originals, every query measured against a restored
// model produces exactly the counters of a fresh load (pinned by the
// round-trip tests).
//
// Layout (all integers big-endian; version 2):
//
//	"CODB" | u16 version | u64 seq | u32 genLen | gen JSON | u16 modelCount
//	repeated per model:
//	  u8 kind | u32 pageSize | u32 numPages | u32 metaLen | meta | arena
//
// The generator configuration is stored in the header so that a consumer
// (cotables -db) can verify the snapshot matches the requested extension
// instead of silently measuring a different database. seq is the last
// write-ahead-log commit the arenas include: 0 for snapshots written by
// Write (cogen -db), the log's watermark for checkpoints.
//
// # One format for snapshots, segments and checkpoints
//
// The container is the repository's only on-disk database format. cogen
// -db writes the full five-model snapshot (Write); cogen -split extracts
// single-shard segments from it byte for byte (Extract); and the durable
// commit path checkpoints each served model as a single-model snapshot
// DIR/<slug>.codb (WriteBase, CheckpointPath), which a restart reopens
// with OpenBase like any other snapshot. Every writer goes through one
// atomic helper — temp file, fsync, rename, directory sync — so a reader
// or a crash sees either the previous file or the complete new one. A
// checkpoint writes the model's meta and arena into one file, so there
// is no window in which a new arena pairs with old metadata.
//
// # Format versioning
//
// Two version numbers evolve independently. The container version
// (Version, the u16 after the magic) covers the layout above; readers
// reject any mismatch with ErrFormat rather than guessing. Each model's
// meta blob additionally carries its own version written by the model's
// SnapshotMeta serializer, so a storage model can evolve its directory
// metadata without a container bump — RestoreMeta rejects blobs it does
// not understand with a typed error. Snapshots are write-once artifacts
// (cogen -db, or a checkpoint superseded by the next one); there is no
// in-place migration, a mismatched snapshot is simply regenerated.
// Version 1 (no seq field) is rejected like any other mismatch.
//
// A snapshot can be restored two ways: Open gives one model a private
// arena (restored into whatever backend the options name), OpenBase lifts
// the arena once into an immutable store.SharedBase from which any number
// of copy-on-write views open without further I/O or copying. OpenBase is
// zero-copy where the platform allows: the arena region of the .codb file
// is mmap'ed read-only in place (disk.MapBaseArena), so the base
// starts with near-zero resident memory and views fault pages in on
// demand; OpenBaseHeap forces the portable heap copy. A mapped base pins
// the snapshot's inode until released — rewriting the file in place while
// a base is open is a caller bug, atomically replacing it via Write or
// WriteBase is safe.
package snapshot
