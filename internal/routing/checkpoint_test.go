package routing

// Tests for the sharded checkpoint/resume layer: interrupt-anywhere
// bit-identical resume, worker-count independence, compatibility
// rejection, pause semantics, and deterministic error reporting.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
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
	plan := r.shardPlan(5)
	if plan.rows != 32 || plan.shardRows != 5 || plan.numShards != 7 {
		t.Fatalf("plan = %+v", plan)
	}
	if p := r.shardPlan(0); p.shardRows < 1 || p.numShards < 1 {
		t.Fatalf("default plan = %+v", p)
	}
	if p := r.shardPlan(1 << 40); p.shardRows != p.rows || p.numShards != 1 {
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
