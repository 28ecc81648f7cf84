package complexobj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/snapshot"
)

// seedSnapshot writes a .codb seed for one model and returns its path
// plus the generated extension.
func seedSnapshot(t *testing.T, kind ModelKind, n int) (string, []*cobench.Station) {
	t.Helper()
	cfg := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(kind, Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(stations); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed.codb")
	if err := WriteSnapshot(path, cfg, db); err != nil {
		t.Fatal(err)
	}
	return path, stations
}

// TestCommitLogLifecycle drives the durable serving lifecycle end to end:
// seed snapshot → commit log → durable commits → restart replays them →
// checkpoint compacts the log → restart from the checkpoint alone.
func TestCommitLogLifecycle(t *testing.T) {
	const kind = DASDBSNSM
	snap, stations := seedSnapshot(t, kind, 40)
	walDir := t.TempDir()

	clog, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := clog.OpenBase(kind, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clog.OpenBase(kind, snap); err == nil {
		t.Fatal("duplicate model registration accepted")
	}

	// Commits before Recover must fail: the log is not armed yet.
	early, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := early.sv.UpdateRoots([]int32{3}, func(i int32, r *cobench.RootRecord) {
		r.Name = "too early"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := early.Commit(clog); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("commit before Recover: %v, want ErrNotRecovered", err)
	}
	early.Close()

	if n, err := clog.Recover(); err != nil || n != 0 {
		t.Fatalf("fresh recover: %d, %v", n, err)
	}
	if _, err := clog.Recover(); err == nil {
		t.Fatal("double Recover accepted")
	}

	commit := func(name string) CommitInfo {
		t.Helper()
		v, err := base.NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.sv.UpdateRoots([]int32{5, 9}, func(i int32, r *cobench.RootRecord) {
			r.Name = name
		}); err != nil {
			t.Fatal(err)
		}
		info, err := v.Commit(clog)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	if info := commit("first"); info.Seq != 1 || info.Gen != 1 || info.Pages == 0 {
		t.Fatalf("first commit: %+v", info)
	}
	if info := commit("second"); info.Seq != 2 || info.Gen != 2 {
		t.Fatalf("second commit: %+v", info)
	}
	s := clog.Stats()
	if s.Commits != 2 || s.LastSeq != 2 || s.SizeBytes == 0 || s.Syncs == 0 {
		t.Fatalf("stats after two commits: %+v", s)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" restart: no checkpoint ran, so the base re-seeds from the
	// snapshot and both commits replay from the log.
	clog2, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := clog2.OpenBase(kind, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := clog2.Recover(); err != nil || n != 2 {
		t.Fatalf("recover replayed %d, %v; want 2", n, err)
	}
	if got := clog2.Stats(); got.Recovered != 2 || got.LastSeq != 2 {
		t.Fatalf("post-recovery stats: %+v", got)
	}
	if base2.Gen() != 2 {
		t.Fatalf("recovered base at generation %d", base2.Gen())
	}
	v, err := base2.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.sv.FetchByKey(stations[9].Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "second" {
		t.Fatalf("recovered view reads %q, want the last committed name", got.Name)
	}
	v.Close()

	// Checkpoint: .codb checkpoint written, log truncated, sequence
	// preserved.
	if err := clog2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := clog2.Stats(); s.SizeBytes != 0 || s.Checkpoints != 1 {
		t.Fatalf("post-checkpoint stats: %+v", s)
	}
	clog2.Close()
	base2.Close()

	// Restart from the checkpoint alone: no seed snapshot needed, nothing
	// to replay, and the next commit continues the sequence.
	clog3, err := OpenCommitLog(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer clog3.Close()
	base3, err := clog3.OpenBase(kind, "")
	if err != nil {
		t.Fatalf("open from checkpoint: %v", err)
	}
	defer base3.Close()
	if n, err := clog3.Recover(); err != nil || n != 0 {
		t.Fatalf("recover after checkpoint: %d, %v", n, err)
	}
	v3, err := base3.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v3.sv.FetchByKey(stations[5].Key); err != nil || got.Name != "second" {
		t.Fatalf("checkpointed state reads %q, %v", got.Name, err)
	}
	if err := v3.sv.UpdateRoots([]int32{1}, func(i int32, r *cobench.RootRecord) {
		r.Name = "after checkpoint"
	}); err != nil {
		t.Fatal(err)
	}
	info, err := v3.Commit(clog3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 3 {
		t.Fatalf("sequence after checkpoint restart: %d, want 3", info.Seq)
	}
	v3.Close()
}

// seedCommitDir loads kinds over a fresh extension of n stations and
// seeds a commit-log directory with their checkpoints.
func seedCommitDir(t *testing.T, n int, kinds ...ModelKind) (string, cobench.Config, []*cobench.Station) {
	t.Helper()
	cfg := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, kind := range kinds {
		db, err := Open(kind, Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Load(stations); err != nil {
			t.Fatal(err)
		}
		err = SeedCommitDir(dir, cfg, db)
		db.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir, cfg, stations
}

// openDurable opens the commit log in dir over the checkpoints of kinds
// and recovers it, returning the replay count.
func openDurable(t *testing.T, dir string, kinds ...ModelKind) (*CommitLog, map[ModelKind]*Base, int) {
	t.Helper()
	clog, err := OpenCommitLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	bases := make(map[ModelKind]*Base)
	for _, kind := range kinds {
		b, err := clog.OpenBase(kind, "")
		if err != nil {
			t.Fatal(err)
		}
		bases[kind] = b
	}
	n, err := clog.Recover()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		clog.Close()
		for _, b := range bases {
			b.Close()
		}
	})
	return clog, bases, n
}

// commitName durably renames object obj of base to name.
func commitName(t *testing.T, clog *CommitLog, base *Base, obj int32, name string) CommitInfo {
	t.Helper()
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.sv.UpdateRoots([]int32{obj}, func(i int32, r *cobench.RootRecord) {
		r.Name = name
	}); err != nil {
		t.Fatal(err)
	}
	info, err := v.Commit(clog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// readName reads object obj's name through a fresh view of base.
func readName(t *testing.T, base *Base, key int32) string {
	t.Helper()
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	got, err := v.sv.FetchByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return got.Name
}

// TestCheckpointIsOneCodbPerModel pins the single on-disk format: after a
// checkpoint the commit directory holds the log plus one single-model
// .codb snapshot per model, each carrying the log's watermark and the
// generator configuration of the snapshot it descends from.
func TestCheckpointIsOneCodbPerModel(t *testing.T) {
	kinds := []ModelKind{DSM, DASDBSNSM}
	dir, cfg, _ := seedCommitDir(t, 30, kinds...)
	clog, bases, _ := openDurable(t, dir, kinds...)
	commitName(t, clog, bases[DSM], 3, "a")
	commitName(t, clog, bases[DASDBSNSM], 4, "b")
	commitName(t, clog, bases[DSM], 5, "c")
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	last := clog.Stats().LastSeq
	if last != 3 {
		t.Fatalf("LastSeq %d, want 3", last)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"dnsm.codb", "dsm.codb", WALFileName}; !slices.Equal(names, want) {
		t.Fatalf("commit dir holds %v, want %v", names, want)
	}
	for _, kind := range kinds {
		info, err := StatSnapshot(snapshot.CheckpointPath(dir, kind.internal()))
		if err != nil {
			t.Fatal(err)
		}
		if info.Seq != last || info.Gen != cfg || !slices.Equal(info.Models, []ModelKind{kind}) {
			t.Errorf("%s checkpoint: %+v, want seq %d, gen %+v, models [%s]", kind, info, last, cfg, kind)
		}
	}
}

// TestCheckpointCrashBetweenFiles simulates a crash in the middle of a
// checkpoint: one model's new checkpoint was renamed in, the other still
// holds its previous file, and the log was never reset. Recovery must
// replay the whole log over both — absolute page images make the replay
// over the newer file idempotent — land every model on its last
// committed state and continue the sequence.
func TestCheckpointCrashBetweenFiles(t *testing.T) {
	const a, b = DASDBSDSM, NSM
	dir, _, stations := seedCommitDir(t, 30, a, b)
	clog, bases, _ := openDurable(t, dir, a, b)
	commitName(t, clog, bases[a], 2, "a1")
	commitName(t, clog, bases[b], 6, "b1")
	commitName(t, clog, bases[a], 2, "a2")

	walPath := filepath.Join(dir, WALFileName)
	bPath := snapshot.CheckpointPath(dir, b.internal())
	logBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bBefore, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clog.Close()
	// Roll back what the crash did not reach: b's rename and the reset.
	if err := os.WriteFile(walPath, logBefore, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bPath, bBefore, 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := StatSnapshot(snapshot.CheckpointPath(dir, a.internal())); err != nil || info.Seq != 3 {
		t.Fatalf("a's checkpoint: %+v, %v; want seq 3", info, err)
	}

	clog2, bases2, n := openDurable(t, dir, a, b)
	if n != 3 {
		t.Fatalf("recovery replayed %d batches, want the whole log (3)", n)
	}
	if got := clog2.Stats().LastSeq; got != 3 {
		t.Fatalf("recovered LastSeq %d, want 3", got)
	}
	if got := readName(t, bases2[a], stations[2].Key); got != "a2" {
		t.Errorf("model a reads %q, want its last commit %q", got, "a2")
	}
	if got := readName(t, bases2[b], stations[6].Key); got != "b1" {
		t.Errorf("model b reads %q, want its last commit %q", got, "b1")
	}
	if got := readName(t, bases2[b], stations[2].Key); got != stations[2].Name {
		t.Errorf("model b object 2 reads %q, want the untouched %q", got, stations[2].Name)
	}
	if info := commitName(t, clog2, bases2[b], 7, "b2"); info.Seq != 4 {
		t.Fatalf("commit after recovery got seq %d, want 4", info.Seq)
	}
}

// TestCheckpointRejectsVersion1 pins the regenerate policy: a version-1
// container (no watermark field) is refused with ErrFormat — by Stat, by
// OpenBase and by a commit log that finds it as a checkpoint — instead
// of being read with a guessed layout.
func TestCheckpointRejectsVersion1(t *testing.T) {
	dir, _, _ := seedCommitDir(t, 20, NSM)
	path := snapshot.CheckpointPath(dir, NSM.internal())
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// v1 layout: "CODB" | u16 version=1 | u32 genLen | ... (no u64 seq).
	v1 := bytes.Clone(v2[:4])
	v1 = binary.BigEndian.AppendUint16(v1, 1)
	v1 = append(v1, v2[4+2+8:]...)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StatSnapshot(path); !errors.Is(err, snapshot.ErrFormat) {
		t.Errorf("StatSnapshot(v1) = %v, want ErrFormat", err)
	}
	if _, err := OpenBase(path, NSM); !errors.Is(err, snapshot.ErrFormat) {
		t.Errorf("OpenBase(v1) = %v, want ErrFormat", err)
	}
	clog, err := OpenCommitLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	if _, err := clog.OpenBase(NSM, ""); !errors.Is(err, snapshot.ErrFormat) {
		t.Errorf("CommitLog.OpenBase over a v1 checkpoint = %v, want ErrFormat", err)
	}
}

// TestCommitLogMaybeCheckpoint pins the size-triggered compaction valve.
func TestCommitLogMaybeCheckpoint(t *testing.T) {
	snap, _ := seedSnapshot(t, NSM, 30)
	clog, err := OpenCommitLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	base, err := clog.OpenBase(NSM, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := clog.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := base.NewView(Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.sv.UpdateRoots([]int32{2}, func(i int32, r *cobench.RootRecord) {
		r.Name = "grow the log"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Commit(clog); err != nil {
		t.Fatal(err)
	}
	if ran, err := clog.MaybeCheckpoint(1 << 30); err != nil || ran {
		t.Fatalf("huge threshold checkpointed: %v, %v", ran, err)
	}
	if ran, err := clog.MaybeCheckpoint(0); err != nil || ran {
		t.Fatalf("disabled threshold checkpointed: %v, %v", ran, err)
	}
	if ran, err := clog.MaybeCheckpoint(1); err != nil || !ran {
		t.Fatalf("tiny threshold did not checkpoint: %v, %v", ran, err)
	}
	if s := clog.Stats(); s.SizeBytes != 0 || s.Checkpoints != 1 {
		t.Fatalf("stats after MaybeCheckpoint: %+v", s)
	}
}

// TestViewPoolRetiresStaleViews: once a commit promotes the base, views
// of the superseded generation — idle or in flight — are destroyed
// instead of recycled, and fresh acquisitions read the new generation.
func TestViewPoolRetiresStaleViews(t *testing.T) {
	db := smallDB(t, DASDBSNSM)
	defer db.Close()
	base, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	pool, err := NewViewPool(base, Options{BufferPages: 128}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Hold two views of generation 0, then park one idle.
	a, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Commit through the second view, promoting the base to generation 1.
	if err := b.sv.UpdateRoots([]int32{4}, func(i int32, r *cobench.RootRecord) {
		r.Name = "promoted"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Both the committed view and the parked idle one are stale now; a
	// fresh acquisition must read the promoted generation.
	c, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Gen() != 1 {
		t.Fatalf("acquired view at generation %d, want 1", c.Gen())
	}
	if got, err := c.sv.FetchByAddress(4); err != nil || got.Name != "promoted" {
		t.Fatalf("stale pool served old state: %q, %v", got.Name, err)
	}
	s := pool.Stats()
	if s.Stale != 2 {
		t.Fatalf("stale retirements: %+v, want Stale=2", s)
	}
	if s.Idle != 0 {
		t.Fatalf("stale view left idle: %+v", s)
	}
}
