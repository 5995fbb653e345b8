package serve

// Compatibility with data directories and clients of the earlier job
// API, whose specs carried "kernel" and "orbits" fields and whose cache
// keys hashed both: old job directories recover, old request bodies are
// accepted, and the dropped fields no longer split the cache.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/routing"
)

// legacyCacheKey is the earlier key scheme, which also hashed the
// kernel name and the orbit flag.
func legacyCacheKey(alg *bilinear.Algorithm, k int, kernel string, orbits bool) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("job alg=%s k=%d kernel=%s adjstride=%d orbits=%t",
		routing.AlgorithmHash(alg), k, kernel, 257, orbits)))
	return hex.EncodeToString(sum[:])
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDataDirRecovers builds a data dir in the earlier format — a
// queued seed-kernel job paused mid-run, a finished orbit job, and a
// cache file under the earlier key — and drives a current server over
// it, in process and over HTTP.
func TestLegacyDataDirRecovers(t *testing.T) {
	strassen := bilinear.Strassen()
	ref := newTestServer(t, Options{})
	ref.Start()
	jr, err := ref.Submit(JobSpec{Alg: "strassen", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, jr.ID())

	dir := t.TempDir()
	// Queued seed-kernel job with 3 of 8 shards checkpointed. The seed
	// kernel's shard contributions were bit-identical to full
	// enumeration's, so the full enumeration writes its checkpoint.
	qdir := filepath.Join(dir, "jobs", "j00000001")
	writeFile(t, filepath.Join(qdir, "spec.json"), fmt.Sprintf(
		`{"id":"j00000001","key":%q,"trace":"legacy-queued","spec":{"alg":"strassen","k":3,"kernel":"seed","orbits":false,"shardrows":16}}`,
		legacyCacheKey(strassen, 3, "seed", false)))
	g, err := cdag.New(strassen, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.VerifyFullRoutingCheckpointed(2, routing.CheckpointConfig{
		Path: filepath.Join(qdir, "run.ckpt"), ShardRows: 16, MaxShards: 3,
	}); !errors.Is(err, routing.ErrPaused) {
		t.Fatalf("legacy checkpoint: err = %v, want ErrPaused", err)
	}
	// Finished orbit job, and its certificate cached under the earlier key.
	oldKey2 := legacyCacheKey(strassen, 2, "scratch", true)
	const cert2 = "paths=512 totalHits=8192 maxVertexHits=72 maxMetaHits=56 bound=96 adjChecked=2"
	const stats2 = `{"paths":512,"total_hits":8192,"max_vertex_hits":72,"max_meta_hits":56,"bound":96,"adj_checked":2}`
	spec2 := `{"alg":"strassen","k":2,"kernel":"scratch","orbits":true}`
	ddir := filepath.Join(dir, "jobs", "j00000002")
	writeFile(t, filepath.Join(ddir, "spec.json"), fmt.Sprintf(
		`{"id":"j00000002","key":%q,"trace":"legacy-done","spec":%s}`, oldKey2, spec2))
	writeFile(t, filepath.Join(ddir, "result.json"), fmt.Sprintf(
		`{"id":"j00000002","state":"done","spec":%s,"key":%q,"cached":false,"stats":%s,"certificate":%q}`,
		spec2, oldKey2, stats2, cert2))
	writeFile(t, filepath.Join(dir, "cache", oldKey2+".json"), fmt.Sprintf(
		`{"key":%q,"spec":%s,"stats":%s,"certificate":%q}`, oldKey2, spec2, stats2, cert2))

	s := newTestServer(t, Options{DataDir: dir, JobWorkers: 2})
	jq, ok := s.Get("j00000001")
	if !ok {
		t.Fatal("queued legacy job not recovered")
	}
	if doc := jq.Snapshot(); doc.State != StateQueued || !doc.Resumed || doc.Key != routing.CacheKey(strassen, 3, 0) {
		t.Fatalf("queued legacy job recovered as %+v", doc)
	}
	jd, ok := s.Get("j00000002")
	if !ok {
		t.Fatal("finished legacy job not recovered")
	}
	if doc := jd.Snapshot(); doc.State != StateDone || doc.Certificate != cert2 {
		t.Fatalf("finished legacy job recovered as %+v", doc)
	}
	s.Start()
	if doc := waitTerminal(t, s, "j00000001"); doc.State != StateDone || doc.Certificate != want.Certificate {
		t.Fatalf("resumed legacy job: %+v\nwant certificate %s", doc, want.Certificate)
	}

	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	// submit POSTs a spec body and waits for its job to finish,
	// returning whether it was served from the cache.
	submit := func(body string) bool {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		var doc JobDoc
		if resp.StatusCode >= 300 || json.Unmarshal(b, &doc) != nil {
			t.Fatalf("POST %s: %d %s", body, resp.StatusCode, b)
		}
		if done := waitTerminal(t, s, doc.ID); done.State != StateDone {
			t.Fatalf("POST %s: job ended %+v", body, done)
		}
		return doc.Cached
	}
	// The legacy queued job's completion filled the current cache entry.
	if !submit(`{"alg":"strassen","k":3,"kernel":"seed","orbits":false}`) {
		t.Fatal("legacy-field resubmission of the recovered job missed the cache")
	}
	// A cache file under the earlier key is not found: computed once.
	if submit(`{"alg":"strassen","k":2,"kernel":"scratch","orbits":true}`) {
		t.Fatal("certificate cached under the earlier key scheme was served")
	}
	if !submit(`{"alg":"strassen","k":2,"orbits":false}`) {
		t.Fatal(`"orbits":false after "orbits":true missed the cache`)
	}
}
