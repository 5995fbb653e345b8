package serve

// Tests for the verification service core: result-cache hits served
// without re-enumeration, single-flight coalescing of identical
// in-flight submissions, bounded-queue rejection, crash durability
// (a daemon aborted mid-job resumes on restart to a bit-identical
// certificate), and the HTTP surface.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pathrouting/internal/routing"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// waitTerminal polls a job until it reaches done/failed.
func waitTerminal(t *testing.T, s *Server, id string) JobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		doc := j.Snapshot()
		if doc.State == StateDone || doc.State == StateFailed {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, doc.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func pathsVerified(s *Server) float64 {
	return s.reg.Snapshot()["routing_paths_verified_total"]
}

// TestCacheHitSkipsEnumeration: a resubmitted identical job must be
// served from the result cache — same certificate, no paths verified
// (the acceptance criterion routed-smoke checks over HTTP).
func TestCacheHitSkipsEnumeration(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()

	spec := JobSpec{Alg: "strassen", K: 2}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := waitTerminal(t, s, j1.ID())
	if doc1.State != StateDone || doc1.Certificate == "" {
		t.Fatalf("first run: %+v", doc1)
	}
	if doc1.Cached {
		t.Fatal("first run claims cached")
	}

	before := pathsVerified(s)
	if before == 0 {
		t.Fatal("first run verified no paths")
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() == j1.ID() {
		t.Fatal("resubmission returned the completed job instead of a cache-hit job")
	}
	doc2 := j2.Snapshot()
	if doc2.State != StateDone || !doc2.Cached {
		t.Fatalf("resubmission not served from cache: %+v", doc2)
	}
	if doc2.Certificate != doc1.Certificate {
		t.Fatalf("cached certificate differs:\n%s\n%s", doc2.Certificate, doc1.Certificate)
	}
	if after := pathsVerified(s); after != before {
		t.Fatalf("cache hit advanced routing_paths_verified_total: %v -> %v", before, after)
	}
	// One miss and one hit: each submission fact is counted once.
	snap := s.reg.Snapshot()
	if snap["serve_jobs_submitted_total"] != 2 || snap["serve_result_cache_hits_total"] != 1 ||
		snap["serve_result_cache_misses_total"] != 1 || snap["serve_jobs_completed_total"] != 1 {
		t.Fatalf("service counters after one miss and one hit: %v", snap)
	}

	// Normalized variants of the same job land on the same key.
	j3, err := s.Submit(JobSpec{Alg: "strassen", K: 2, AdjStride: 257})
	if err != nil {
		t.Fatal(err)
	}
	if doc3 := j3.Snapshot(); !doc3.Cached {
		t.Fatalf("normalized-spec resubmission missed the cache: %+v", doc3)
	}
}

// TestCacheSurvivesRestart: a second server over the same data dir
// serves the first server's certificates from the disk spill.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir})
	s1.Start()
	j1, err := s1.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc1 := waitTerminal(t, s1, j1.ID())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{DataDir: dir})
	// No Start: a warm cache needs no runners.
	j2, err := s2.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc2 := j2.Snapshot()
	if !doc2.Cached || doc2.Certificate != doc1.Certificate {
		t.Fatalf("restart lost the warm result: %+v", doc2)
	}
	if got := pathsVerified(s2); got != 0 {
		t.Fatalf("restarted server enumerated %v paths for a warm result", got)
	}
	// The completed job record also survived for polling.
	if _, ok := s2.Get(j1.ID()); !ok {
		t.Fatalf("job %s not recovered", j1.ID())
	}
}

// TestSingleFlightCoalescing: identical submissions join the one
// in-flight job; distinct specs don't.
func TestSingleFlightCoalescing(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 8})
	// Deliberately not started: everything stays queued.
	a1, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("identical submissions got distinct jobs %s, %s", a1.ID(), a2.ID())
	}
	if doc := a1.Snapshot(); doc.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", doc.Coalesced)
	}
	b, err := s.Submit(JobSpec{Alg: "strassen", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("distinct specs coalesced")
	}
	if got := s.reg.Snapshot()["serve_jobs_coalesced_total"]; got != 1 {
		t.Fatalf("serve_jobs_coalesced_total = %v, want 1", got)
	}

	// Late joiners still get the certificate once the run completes.
	s.Start()
	doc := waitTerminal(t, s, a2.ID())
	if doc.State != StateDone || doc.Certificate == "" {
		t.Fatalf("coalesced job never completed: %+v", doc)
	}
}

// TestQueueBounded: submissions beyond QueueDepth fail loudly instead
// of queueing unboundedly; identical specs coalesce instead of
// consuming a slot.
func TestQueueBounded(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 1})
	// Not started, so the queue never drains.
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 2}); err != ErrQueueFull {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 1}); err != nil {
		t.Fatalf("coalescing submission rejected by full queue: %v", err)
	}
	// The rejected job must leave no orphan state.
	for _, j := range s.Jobs() {
		if j.Spec().K == 2 {
			t.Fatal("rejected job still registered")
		}
	}
}

// TestSubmitValidation: bad specs are rejected before touching the
// queue.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxK: 3})
	for _, spec := range []JobSpec{
		{Alg: "nope", K: 2},
		{Alg: "strassen", K: 0},
		{Alg: "strassen", K: 4}, // beyond MaxK
		{Alg: "strassen", K: 2, AdjStride: -1},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs registered by invalid submissions", n)
	}
}

// TestCrashResumeBitIdentical is the durability acceptance test: a
// server hard-aborted mid-job (stop closed between shards, process
// state discarded — the in-process analogue of kill -9, since every
// completed shard is already fsynced to the checkpoint) must, on
// restart over the same data dir, resume the job from its checkpoint
// and finish with a certificate bit-identical to an uninterrupted
// run's.
func TestCrashResumeBitIdentical(t *testing.T) {
	// Uninterrupted reference.
	ref := newTestServer(t, Options{})
	ref.Start()
	spec := JobSpec{Alg: "strassen", K: 3, ShardRows: 16} // 8 shards
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, jr.ID())
	if want.State != StateDone {
		t.Fatalf("reference run: %+v", want)
	}

	// First daemon: abort after the second shard completes.
	dir := t.TempDir()
	var (
		s1      *Server
		once    sync.Once
		aborted = make(chan struct{})
	)
	opts := Options{DataDir: dir, JobWorkers: 2, OnShard: func(_ *Job, d routing.ShardDone) {
		if !d.Restored && d.Done >= 2 {
			once.Do(func() {
				s1.mu.Lock()
				if !s1.draining {
					s1.draining = true
					close(s1.stop) // hard abort: no final flush beyond per-shard saves
				}
				s1.mu.Unlock()
				close(aborted)
			})
		}
	}}
	s1 = newTestServer(t, opts)
	s1.Start()
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-aborted:
	case <-time.After(30 * time.Second):
		t.Fatal("failpoint never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	doc1 := j1.Snapshot()
	if doc1.State != StateQueued {
		t.Fatalf("aborted job state = %s, want queued (got %+v)", doc1.State, doc1)
	}
	cp, err := routing.LoadCheckpoint(filepath.Join(dir, "jobs", j1.ID(), "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.DoneCount == 0 || cp.DoneCount == cp.NumShards {
		t.Fatalf("abort left %d/%d shards — not mid-job", cp.DoneCount, cp.NumShards)
	}

	// Second daemon over the same dir: recovery re-enqueues, the run
	// resumes from the checkpoint, and the certificate matches.
	s2 := newTestServer(t, Options{DataDir: dir, JobWorkers: 3})
	j2, ok := s2.Get(j1.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j1.ID())
	}
	if !j2.Snapshot().Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	s2.Start()
	doc2 := waitTerminal(t, s2, j2.ID())
	if doc2.State != StateDone {
		t.Fatalf("resumed job: %+v", doc2)
	}
	if doc2.Certificate != want.Certificate {
		t.Fatalf("resumed certificate differs from uninterrupted run:\nresumed %s\nfresh   %s",
			doc2.Certificate, want.Certificate)
	}
	if withoutElapsed(*doc2.Stats) != withoutElapsed(*want.Stats) {
		t.Fatalf("resumed stats differ:\nresumed %+v\nfresh   %+v", *doc2.Stats, *want.Stats)
	}
}

func withoutElapsed(d statsDoc) statsDoc { d.ElapsedSec = 0; return d }

// TestJobResourcesAccounted: a completed job's doc carries a populated
// Resources block — timeline stamps, wall/CPU/allocation costs, and a
// throughput figure.
func TestJobResourcesAccounted(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	j, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc := waitTerminal(t, s, j.ID())
	if doc.State != StateDone {
		t.Fatalf("job: %+v", doc)
	}
	res := doc.Resources
	if res == nil {
		t.Fatal("done job has no Resources block")
	}
	if res.Legs != 1 {
		t.Fatalf("Legs = %d, want 1", res.Legs)
	}
	if res.QueuedAt == "" || res.StartedAt == "" || res.FinishedAt == "" {
		t.Fatalf("timeline incomplete: %+v", res)
	}
	if res.WallSeconds <= 0 || res.QueueWaitSeconds < 0 || res.AllocBytes <= 0 {
		t.Fatalf("costs not accounted: %+v", res)
	}
	if res.PathsPerSec <= 0 {
		t.Fatalf("PathsPerSec = %f", res.PathsPerSec)
	}
}

// TestAccountingSurvivesRestart: the cost accounting of a job aborted
// mid-run is persisted per shard (the same durability contract as the
// checkpoint), and the resumed leg accumulates onto the crashed leg's
// totals instead of resetting them.
func TestAccountingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var (
		s1      *Server
		once    sync.Once
		aborted = make(chan struct{})
	)
	opts := Options{DataDir: dir, JobWorkers: 2, OnShard: func(_ *Job, d routing.ShardDone) {
		if !d.Restored && d.Done >= 2 {
			once.Do(func() {
				s1.mu.Lock()
				if !s1.draining {
					s1.draining = true
					close(s1.stop)
				}
				s1.mu.Unlock()
				close(aborted)
			})
		}
	}}
	s1 = newTestServer(t, opts)
	s1.Start()
	j1, err := s1.Submit(JobSpec{Alg: "strassen", K: 3, ShardRows: 16}) // 8 shards
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-aborted:
	case <-time.After(30 * time.Second):
		t.Fatal("failpoint never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The crashed leg's accounting must already be on disk: the shard
	// boundary persisted spec.json before announcing the shard, so a
	// kill -9 at any point loses at most one shard of cost.
	var specRec struct {
		Resources *ResourcesDoc `json:"resources"`
	}
	body, err := os.ReadFile(filepath.Join(dir, "jobs", j1.ID(), "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &specRec); err != nil {
		t.Fatal(err)
	}
	leg1 := specRec.Resources
	if leg1 == nil || leg1.Legs != 1 {
		t.Fatalf("crashed leg not persisted in spec.json: %+v", leg1)
	}
	if leg1.WallSeconds <= 0 || leg1.StartedAt == "" {
		t.Fatalf("crashed leg costs empty: %+v", leg1)
	}
	if leg1.FinishedAt != "" {
		t.Fatalf("aborted job claims a finish time: %+v", leg1)
	}

	// Restart: the resumed leg folds onto the persisted totals.
	s2 := newTestServer(t, Options{DataDir: dir, JobWorkers: 3})
	s2.Start()
	doc := waitTerminal(t, s2, j1.ID())
	if doc.State != StateDone {
		t.Fatalf("resumed job: %+v", doc)
	}
	res := doc.Resources
	if res == nil {
		t.Fatal("resumed job has no Resources block")
	}
	if res.Legs != 2 {
		t.Fatalf("Legs = %d, want 2 (crashed + resumed)", res.Legs)
	}
	if res.WallSeconds < leg1.WallSeconds {
		t.Fatalf("wall time went backwards across restart: %f -> %f", leg1.WallSeconds, res.WallSeconds)
	}
	if res.AllocBytes < leg1.AllocBytes {
		t.Fatalf("alloc bytes went backwards across restart: %d -> %d", leg1.AllocBytes, res.AllocBytes)
	}
	if res.QueuedAt != leg1.QueuedAt || res.StartedAt != leg1.StartedAt {
		t.Fatalf("resumed leg rewrote the job's origin stamps: %+v vs %+v", res, leg1)
	}
	if res.FinishedAt == "" || res.PathsPerSec <= 0 {
		t.Fatalf("resumed leg not finalized: %+v", res)
	}
}

// TestHTTPEndpoints drives the mounted mux end to end with httptest.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	// Bad specs: 400 with a JSON error.
	for _, bad := range []string{"{", `{"alg":"nope","k":2}`, `{"alg":"strassen","k":0}`} {
		resp, body := post(bad)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Fatalf("POST %q: %d %s", bad, resp.StatusCode, body)
		}
	}

	// Submit: 202 with a job ID.
	resp, body := post(`{"alg":"strassen","k":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var doc JobDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("submit response not JSON: %v\n%s", err, body)
	}
	if doc.ID == "" || doc.Key == "" {
		t.Fatalf("submit doc incomplete: %s", body)
	}

	// Poll to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get("/jobs/" + doc.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == StateDone {
			break
		}
		if doc.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if doc.Certificate == "" || doc.Stats == nil || doc.Stats.MaxVertexHits > doc.Stats.Bound {
		t.Fatalf("completed doc incomplete: %s", body)
	}

	// Resubmission over HTTP: 200 + cached.
	resp, body = post(`{"alg":"strassen","k":2}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"cached": true`) {
		t.Fatalf("cached resubmit: %d %s", resp.StatusCode, body)
	}

	// Listing and 404.
	resp, body = get("/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, doc.ID) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	if resp, _ = get("/jobs/j99999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
}

// TestHealthSnapshot: the daemon /healthz document carries queue and
// cache state and survives json marshaling.
func TestHealthSnapshot(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, Concurrency: 2})
	s.Start()
	j, err := s.Submit(JobSpec{Alg: "strassen", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j.ID())
	body, err := json.Marshal(s.Health())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"queue_cap":4`, `"concurrency":2`, `"status":"ok"`, `"cache_entries":1`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("health missing %s:\n%s", want, body)
		}
	}
}
