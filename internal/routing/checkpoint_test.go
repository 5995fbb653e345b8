package routing

// Tests for the sharded checkpoint/resume layer: interrupt-anywhere
// bit-identical resume, worker-count independence, compatibility
// rejection, pause semantics, deterministic error reporting, and the
// on-disk format: version-1 files written by earlier builds resume,
// and internally inconsistent files are rejected on load.

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/obs"
)

// TestCheckpointResumeBitIdentical is the round-trip property test:
// for every interruption point i, a run killed after shard i (via
// MaxShards) and resumed to completion — across *varying* worker
// counts — reports Stats bit-identical (Elapsed aside) to an
// uninterrupted parallel run and to the sequential verifier.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // aK = 64, 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}

	const shardRows = 16 // 8 shards
	workersAt := []int{1, 2, 7, 3, 5, 4, 2, 1, 6}
	for interrupt := int64(1); interrupt <= 7; interrupt++ {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		// First leg: complete exactly `interrupt` shards, then stop.
		st, err := r.VerifyFullRoutingCheckpointed(workersAt[interrupt%int64(len(workersAt))], CheckpointConfig{
			Path: path, ShardRows: shardRows, MaxShards: interrupt, Resume: true,
		})
		if !errors.Is(err, ErrPaused) {
			t.Fatalf("interrupt=%d: expected ErrPaused, got %v", interrupt, err)
		}
		if st.NumPaths >= want.NumPaths {
			t.Fatalf("interrupt=%d: paused run already enumerated %d of %d paths", interrupt, st.NumPaths, want.NumPaths)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("interrupt=%d: %v", interrupt, err)
		}
		if cp.DoneCount != interrupt {
			t.Fatalf("interrupt=%d: checkpoint has %d shards done", interrupt, cp.DoneCount)
		}
		// Second leg: resume with a different worker count.
		st, err = r.VerifyFullRoutingCheckpointed(workersAt[(interrupt+3)%int64(len(workersAt))], CheckpointConfig{
			Path: path, ShardRows: shardRows, Resume: true,
		})
		if err != nil {
			t.Fatalf("interrupt=%d resume: %v", interrupt, err)
		}
		if !sameStats(st, want) {
			t.Fatalf("interrupt=%d:\nresumed      %+v\nuninterrupted %+v", interrupt, st, want)
		}
	}
}

// TestCheckpointedMatchesParallelWithoutInterrupt pins the zero-
// interruption case at several worker counts and shard sizes,
// including a shard size that does not divide the row count.
func TestCheckpointedMatchesParallelWithoutInterrupt(t *testing.T) {
	r := mustRouter(t, bilinear.DisconnectedFast(), 2) // a = 16, aK = 256
	want, err := r.VerifyFullRoutingParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardRows := range []int64{1, 7, 64, 512, 100000} {
		for _, w := range []int{1, 3, 8} {
			st, err := r.VerifyFullRoutingCheckpointed(w, CheckpointConfig{
				Path: filepath.Join(t.TempDir(), "run.ckpt"), ShardRows: shardRows,
			})
			if err != nil {
				t.Fatalf("shardRows=%d workers=%d: %v", shardRows, w, err)
			}
			if !sameStats(st, want) {
				t.Fatalf("shardRows=%d workers=%d:\ncheckpointed %+v\nplain        %+v", shardRows, w, st, want)
			}
		}
	}
}

// TestCheckpointAlreadyCompleteResume verifies that resuming a finished
// checkpoint re-derives the final Stats from the cached state alone,
// without re-enumerating any path.
func TestCheckpointAlreadyCompleteResume(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	first, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Any re-enumeration would call Progress; forbid it.
	r.Progress = func(Progress) { t.Error("resume of a complete checkpoint re-enumerated paths") }
	again, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true})
	r.Progress = nil
	if err != nil {
		t.Fatal(err)
	}
	if !sameStats(first, again) {
		t.Fatalf("cached stats differ:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestCheckpointCompatRejected pins the guard rails: a checkpoint from
// a different (alg, k) or shard geometry or adjacency stride must be
// rejected, not silently merged.
func TestCheckpointCompatRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	r2 := mustRouter(t, bilinear.Strassen(), 2)
	if _, err := r2.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4}); err != nil {
		t.Fatal(err)
	}

	r3 := mustRouter(t, bilinear.Strassen(), 3)
	if _, err := r3.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("k mismatch accepted")
	}
	if _, err := r2.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 8, Resume: true}); err == nil {
		t.Fatal("shard-size mismatch accepted")
	}
	r2b := mustRouter(t, bilinear.Strassen(), 2)
	r2b.AdjacencySampleStride = 1
	if _, err := r2b.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("adjacency-stride mismatch accepted")
	}
	rw := mustRouter(t, bilinear.Winograd(), 2)
	if _, err := rw.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}
	// Without Resume, an existing incompatible file is simply replaced.
	if _, err := rw.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4}); err != nil {
		t.Fatalf("fresh run over existing file: %v", err)
	}

	// A torn/garbage file must be a load error, not a fresh start.
	bad := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: bad, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// TestCheckpointReportsSequentialError pins error determinism through
// the checkpoint engine: a corrupted routing reports exactly the
// sequential verifier's error at any worker count, and the checkpoint
// never marks the failing shard done.
func TestCheckpointReportsSequentialError(t *testing.T) {
	r := corruptRouter(t, 3)
	_, seqErr := r.VerifyFullRouting()
	if seqErr == nil {
		t.Fatal("sequential verifier accepted a corrupted matching")
	}
	for _, w := range []int{1, 2, 7} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		_, err := r.VerifyFullRoutingCheckpointed(w, CheckpointConfig{Path: path, ShardRows: 8})
		if err == nil {
			t.Fatalf("workers=%d: corrupted matching accepted", w)
		}
		if err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d:\ncheckpointed %v\nsequential   %v", w, err, seqErr)
		}
		if cp, loadErr := LoadCheckpoint(path); loadErr == nil && cp.DoneCount >= cp.NumShards {
			t.Fatalf("workers=%d: checkpoint claims completion despite error", w)
		}
	}
}

// TestCheckpointOnShardAndPlan checks the shard geometry and the
// OnShard observability stream: every pending shard reported once,
// cumulative Done strictly increasing to NumShards.
func TestCheckpointOnShardAndPlan(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2) // 32 rows
	plan := r.shardPlan(5, 1)
	if plan.rows != 32 || plan.shardRows != 5 || plan.numShards != 7 {
		t.Fatalf("plan = %+v", plan)
	}
	if p := r.shardPlan(0, 1); p.shardRows < 1 || p.numShards < 1 {
		t.Fatalf("default plan = %+v", p)
	}
	if p := r.shardPlan(1<<40, 1); p.shardRows != p.rows || p.numShards != 1 {
		t.Fatalf("oversized shard plan = %+v", p)
	}

	seen := make(map[int64]int)
	var last int64
	_, err := r.VerifyFullRoutingCheckpointed(1, CheckpointConfig{
		Path: filepath.Join(t.TempDir(), "run.ckpt"), ShardRows: 5,
		OnShard: func(d ShardDone) {
			seen[d.Shard]++
			if d.Done <= last || d.Total != 7 {
				t.Errorf("non-monotonic shard notification: %+v after done=%d", d, last)
			}
			last = d.Done
			wantRows := int64(5)
			if d.Shard == 6 {
				wantRows = 2 // 32 = 6*5 + 2
			}
			if d.Rows != wantRows || d.Paths != wantRows*16 {
				t.Errorf("shard %d: rows=%d paths=%d", d.Shard, d.Rows, d.Paths)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 || last != 7 {
		t.Fatalf("saw %d distinct shards, final done %d", len(seen), last)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("shard %d reported %d times", s, n)
		}
	}
}

// TestResumeCreditsRestoredWork is the regression test for resumed-run
// observability: the Paths/AdjChecks counters and the OnShard stream
// must account for restored shards, so coverage reaches 100% on a
// resumed run — previously only ShardsSkipped moved, and a resume of a
// *complete* checkpoint emitted nothing at all.
func TestResumeCreditsRestoredWork(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err = r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 16, MaxShards: 3, // pause at 3/8 shards
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh "process": new instruments, empty counters. The
	// run must credit the restored 3 shards up front and end with the
	// full-run totals.
	r.Obs = NewInstruments(obs.NewRegistry())
	var restored []ShardDone
	var lastDone int64
	st, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 16, Resume: true,
		OnShard: func(d ShardDone) {
			if d.Restored {
				restored = append(restored, d)
			}
			lastDone = d.Done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPaths != want.NumPaths {
		t.Fatalf("resumed stats: %d paths, want %d", st.NumPaths, want.NumPaths)
	}
	if got := r.Obs.Paths.Value(); got != want.NumPaths {
		t.Errorf("Paths counter %d, want %d (restored work not credited)", got, want.NumPaths)
	}
	if got := r.Obs.AdjChecks.Value(); got != want.AdjacencyChecked {
		t.Errorf("AdjChecks counter %d, want %d", got, want.AdjacencyChecked)
	}
	if got := r.Obs.ShardsSkipped.Value(); got != 3 {
		t.Errorf("ShardsSkipped %d, want 3", got)
	}
	if len(restored) != 1 {
		t.Fatalf("%d restored notifications, want exactly 1", len(restored))
	}
	if d := restored[0]; d.Shard != -1 || d.Done != 3 || d.Total != 8 ||
		d.Rows != 48 || d.Paths != cp.NumPaths {
		t.Fatalf("restored notification %+v (checkpoint had %d paths)", d, cp.NumPaths)
	}
	if lastDone != 8 {
		t.Fatalf("final OnShard done %d, want 8", lastDone)
	}

	// Resuming the now-complete checkpoint re-runs nothing but must
	// still credit everything: counters at full totals, one restored
	// notification covering all shards.
	r.Obs = NewInstruments(obs.NewRegistry())
	restored = nil
	st, err = r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 16, Resume: true,
		OnShard: func(d ShardDone) {
			if !d.Restored {
				t.Errorf("complete checkpoint re-ran shard %d", d.Shard)
			}
			restored = append(restored, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPaths != want.NumPaths {
		t.Fatalf("fully-restored stats: %d paths, want %d", st.NumPaths, want.NumPaths)
	}
	if got := r.Obs.Paths.Value(); got != want.NumPaths {
		t.Errorf("fully-restored Paths counter %d, want %d", got, want.NumPaths)
	}
	if len(restored) != 1 || restored[0].Done != 8 || restored[0].Total != 8 || restored[0].Rows != 128 {
		t.Fatalf("fully-restored notifications %+v, want one covering all 8 shards", restored)
	}
	r.Obs = nil
}

// copyFixture copies a checked-in checkpoint into a temp dir, so a
// resume can rewrite it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointV1FixtureResumes resumes a real version-1 checkpoint:
// testdata/v1-strassen-k3.ckpt was written by a build that stored
// meta-vertex hits as a sparse map (`routecheck -alg strassen -k 3
// -workers 2 -shardrows 16 -maxshards 3 -checkpoint …`, paused after 3
// of 8 shards). It must load into the dense form and resume, at a
// different worker count, to Stats bit-identical to a fresh run; the
// file it leaves behind is version 2 and reloads to the same totals.
func TestCheckpointV1FixtureResumes(t *testing.T) {
	path := copyFixture(t, "v1-strassen-k3.ckpt")
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != CheckpointVersion || len(cp.Meta) != cp.NumVertices ||
		cp.DoneCount != 3 || cp.NumShards != 8 || cp.ShardRows != 16 {
		t.Fatalf("v1 fixture loaded as version %d, %d meta counters for %d vertices, %d/%d shards of %d rows",
			cp.Version, len(cp.Meta), cp.NumVertices, cp.DoneCount, cp.NumShards, cp.ShardRows)
	}
	r := mustRouter(t, bilinear.Strassen(), 3)
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	for _, orbits := range []bool{true, false} {
		path := copyFixture(t, "v1-strassen-k3.ckpt")
		r.OrbitReduction = orbits
		st, err := r.VerifyFullRoutingCheckpointed(3, CheckpointConfig{Path: path, Resume: true})
		if err != nil {
			t.Fatalf("orbits=%v: resume of v1 fixture: %v", orbits, err)
		}
		if !sameStats(st, want) {
			t.Fatalf("orbits=%v:\nresumed v1 %+v\nfresh      %+v", orbits, st, want)
		}
		again, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, Resume: true})
		if err != nil || !sameStats(again, want) {
			t.Fatalf("orbits=%v: reload of the rewritten checkpoint: %+v, %v", orbits, again, err)
		}
	}
	r.OrbitReduction = false
}

// v1Checkpoint is the version-1 file layout: meta hits as a sparse map.
type v1Checkpoint struct {
	Version, K, NumVertices         int
	Alg                             string
	ShardRows, NumShards, AdjStride int64
	Done                            []bool
	DoneCount, NumPaths, TotalHits  int64
	AdjChecked                      int64
	Hits                            []int64
	MetaHits                        map[cdag.V]int64
}

// writeCheckpoint gob-encodes c to a temp file, bypassing save's
// invariants, so tests can hand the loader inconsistent files.
func writeCheckpoint(t *testing.T, c any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(c); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCheckpointRejectsInconsistent is the regression test for a
// resume panic: a file whose DoneCount exceeded NumShards reached
// make([]int64, 0, NumShards-DoneCount) and crashed with "makeslice:
// cap out of range" — in a daemon, on every recovery of the job.
// testdata/donecount-strassen-k2.ckpt is such a file (a version-1
// checkpoint with DoneCount 13 for 8 shards, 3 of them done). It, and
// files with a meta-hit vector of the wrong length or a version-1
// meta-vertex key out of range, must be load errors, and a resume over
// them an error, never a panic.
func TestLoadCheckpointRejectsInconsistent(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	good, err := LoadCheckpoint(filepath.Join("testdata", "v2-strassen-k2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	n := good.NumVertices
	cases := map[string]string{"donecount fixture": copyFixture(t, "donecount-strassen-k2.ckpt")}
	for name, mutate := range map[string]func(c *Checkpoint){
		"done count below flags": func(c *Checkpoint) { c.DoneCount-- },
		"short meta vector":      func(c *Checkpoint) { c.Meta = c.Meta[:n-1] },
		"missing done flags":     func(c *Checkpoint) { c.Done = c.Done[:1] },
		"unknown version":        func(c *Checkpoint) { c.Version = CheckpointVersion + 1 },
	} {
		c := *good
		mutate(&c)
		cases[name] = writeCheckpoint(t, &c)
	}
	for name, key := range map[string]cdag.V{"v1 key out of range": cdag.V(n), "v1 negative key": -1} {
		c := v1Checkpoint{Version: 1, Alg: good.Alg, K: good.K, NumVertices: n, ShardRows: good.ShardRows,
			NumShards: good.NumShards, AdjStride: good.AdjStride, Done: good.Done, DoneCount: good.DoneCount,
			Hits: good.Hits, MetaHits: map[cdag.V]int64{key: 1}}
		cases[name] = writeCheckpoint(t, &c)
	}
	for name, path := range cases {
		if _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
		_, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, Resume: true})
		if err == nil || errors.Is(err, ErrPaused) {
			t.Errorf("%s: resume err = %v, want a load error", name, err)
		}
	}
	_, err = LoadCheckpoint(cases["donecount fixture"])
	if err == nil || !strings.Contains(err.Error(), "done count 13") {
		t.Fatalf("donecount fixture: err = %v, want the inconsistent done count named", err)
	}
}

// TestInMemoryRejectsPersistenceOptions: Resume and MaxShards only make
// sense with a checkpoint file; without a Path they are errors, not
// silently ignored.
func TestInMemoryRejectsPersistenceOptions(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 1)
	for _, cfg := range []CheckpointConfig{{Resume: true}, {MaxShards: 1}} {
		if _, err := r.VerifyFullRoutingCheckpointed(1, cfg); err == nil {
			t.Errorf("%+v without a Path accepted", cfg)
		}
	}
}

// gobUint reads a gob unsigned integer at b[i:]: one byte below 128,
// else a negated byte count and that many big-endian bytes.
func gobUint(b []byte, i int) (v uint64, next int) {
	if b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	n := int(-int8(b[i]))
	for _, c := range b[i+1 : i+1+n] {
		v = v<<8 | uint64(c)
	}
	return v, i + 1 + n
}

// TestLoadCheckpointBoundsV1MapClaim: gob sizes a map from the entry
// count on the wire before reading any entry, so a version-1 file whose
// meta-hit map claims 2²⁰ entries but holds one would, decoded
// naively, allocate tens of MB (and gigabytes for larger claims) before
// failing. The loader must reject it without allocating for the claim.
func TestLoadCheckpointBoundsV1MapClaim(t *testing.T) {
	path := writeCheckpoint(t, &v1Checkpoint{Version: 1, NumVertices: 1, Hits: []int64{0},
		MetaHits: map[cdag.V]int64{0: 1}})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The value is the stream's last message, and the map its last
	// field: the entry count (1) directly precedes the one (key 0,
	// value 1) pair and the struct terminator.
	var last, i int
	for i < len(b) {
		n, body := gobUint(b, i)
		last, i = i, body+int(n)
	}
	n, body := gobUint(b, last)
	if b[len(b)-4] != 1 || body+int(n) != len(b) || n+4 >= 0x80 {
		t.Fatalf("unexpected encoding of the map tail: % x", b[last:])
	}
	claim := []byte{0xfd, 0x10, 0, 0} // 1<<20 entries
	msg := append(append(append([]byte{}, b[body:len(b)-4]...), claim...), b[len(b)-3:]...)
	b = append(append(b[:last:last], byte(len(msg))), msg...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadCheckpoint(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated version-1 map accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("loading a 2²⁰-entry map claim allocated %d bytes: %v", grew, err)
	}
}
