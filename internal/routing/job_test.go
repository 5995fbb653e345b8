package routing

// Tests for the job-shaped entry point and the content-addressed
// cache keys the verification service builds on: RunJob must match
// the underlying verifiers bit for bit, CacheKey must collide exactly
// when certificates are guaranteed identical, and the Stop channel
// must drain a run into a resumable checkpoint.

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
)

// TestRunJobMatchesVerifier: the job pipeline (graph + matching +
// checkpointed orbit-kernel verify in one call) reports Stats
// bit-identical to the directly-driven full-enumeration oracle.
func TestRunJobMatchesVerifier(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	want, err := r.VerifyFullRoutingParallel(2)
	if err != nil {
		t.Fatal(err)
	}

	var shards int
	st, err := RunJob(context.Background(), JobConfig{
		Alg: bilinear.Strassen(), K: 2, Workers: 2,
		CheckpointPath: filepath.Join(t.TempDir(), "job.ckpt"),
		Resume:         true,
		OnShard:        func(ShardDone) { shards++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameStats(st, want) {
		t.Fatalf("RunJob stats %+v, verifier %+v", st, want)
	}
	if shards == 0 {
		t.Fatal("OnShard never called")
	}
}

// TestStatsCertificate pins the certificate line routecheck prints
// after "stats:" and routed serves for a finished job.
func TestStatsCertificate(t *testing.T) {
	st, err := mustRouter(t, bilinear.Strassen(), 2).VerifyFullRoutingParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	const want = "paths=512 totalHits=8192 maxVertexHits=72 maxMetaHits=56 bound=96 adjChecked=2"
	if got := st.Certificate(); got != want {
		t.Fatalf("certificate %q, want %q", got, want)
	}
}

// TestByNameRoundTrip: every catalog algorithm comes back from
// bilinear.ByName under the same content hash — the identity the
// service's cache keys build on — and an unknown name is rejected with
// the catalog listed.
func TestByNameRoundTrip(t *testing.T) {
	for _, alg := range bilinear.All() {
		got, err := bilinear.ByName(alg.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", alg.Name, err)
		}
		if got.Name != alg.Name || AlgorithmHash(got) != AlgorithmHash(alg) {
			t.Fatalf("ByName(%q) built %q with a different hash", alg.Name, got.Name)
		}
	}
	if _, err := bilinear.ByName("nope"); err == nil || !strings.Contains(err.Error(), "laderman") {
		t.Fatalf("unknown name: err = %v, want one listing the catalog", err)
	}
}

// TestRunJobValidation: construction errors surface before any
// enumeration runs.
func TestRunJobValidation(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "job.ckpt")
	if _, err := RunJob(context.Background(), JobConfig{K: 2, CheckpointPath: ckpt}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := RunJob(context.Background(), JobConfig{Alg: bilinear.Strassen(), K: 0, CheckpointPath: ckpt}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := RunJob(context.Background(), JobConfig{Alg: bilinear.Strassen(), K: 2}); err == nil {
		t.Fatal("missing checkpoint path accepted")
	}
}

// TestRunJobStopDrains: closing Stop pauses the run at shard
// granularity with a resumable checkpoint; resuming completes to
// Stats bit-identical to an uninterrupted run.
func TestRunJobStopDrains(t *testing.T) {
	want, err := RunJob(context.Background(), JobConfig{
		Alg: bilinear.Strassen(), K: 3, Workers: 2,
		CheckpointPath: filepath.Join(t.TempDir(), "fresh.ckpt"), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "job.ckpt")
	stop := make(chan struct{})
	cfg := JobConfig{
		Alg: bilinear.Strassen(), K: 3, Workers: 2, ShardRows: 16, // 8 shards
		CheckpointPath: path, Resume: true, Stop: stop,
		OnShard: func(d ShardDone) {
			if d.Done == 2 {
				close(stop) // drain after the second shard completes
			}
		},
	}
	st, err := RunJob(context.Background(), cfg)
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("drained run: err = %v, want ErrPaused", err)
	}
	if st.NumPaths >= want.NumPaths {
		t.Fatalf("drained run enumerated everything (%d paths)", st.NumPaths)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.DoneCount == 0 || cp.DoneCount == cp.NumShards {
		t.Fatalf("checkpoint has %d/%d shards — not a mid-job drain", cp.DoneCount, cp.NumShards)
	}

	cfg.Stop, cfg.OnShard = nil, nil
	st, err = RunJob(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStats(st, want) {
		t.Fatalf("resumed stats %+v, uninterrupted %+v", st, want)
	}
}

// TestCacheKeyContentAddressed: keys collide exactly when the
// certificate is guaranteed identical.
func TestCacheKeyContentAddressed(t *testing.T) {
	strassen := bilinear.Strassen()
	base := CacheKey(strassen, 3, 0)

	// Stable across calls, and across the name of the algorithm.
	renamed := bilinear.Strassen()
	renamed.Name = "strassen-by-any-other-name"
	if got := CacheKey(renamed, 3, 0); got != base {
		t.Fatalf("renamed algorithm changed the key: %s vs %s", got, base)
	}
	// Normalization: 0 = default stride.
	if got := CacheKey(strassen, 3, defaultAdjacencyStride); got != base {
		t.Fatalf("normalized key %s differs from base %s", got, base)
	}
	if got := (JobConfig{Alg: strassen, K: 3}).CacheKey(); got != base {
		t.Fatalf("JobConfig key %s differs from base %s", got, base)
	}

	// Every certificate-relevant parameter must change the key.
	distinct := map[string]string{
		"base":    base,
		"k":       CacheKey(strassen, 4, 0),
		"stride":  CacheKey(strassen, 3, 1),
		"alg":     CacheKey(bilinear.Winograd(), 3, 0),
		"nonfast": CacheKey(bilinear.Classical(2), 3, 0),
	}
	seen := map[string]string{}
	for which, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Fatalf("cache keys for %q and %q collide: %s", which, prev, key)
		}
		seen[key] = which
	}
}

// TestAlgorithmHashCoefficientSensitivity: the hash covers every
// coefficient, so a single-entry perturbation changes it.
func TestAlgorithmHashCoefficientSensitivity(t *testing.T) {
	a, b := bilinear.Strassen(), bilinear.Strassen()
	if AlgorithmHash(a) != AlgorithmHash(b) {
		t.Fatal("hash not deterministic")
	}
	b.W[0][0] = b.W[0][0].Neg()
	if AlgorithmHash(a) == AlgorithmHash(b) {
		t.Fatal("flipping a decoding coefficient did not change the hash")
	}
}
