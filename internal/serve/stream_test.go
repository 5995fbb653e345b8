package serve

// Tests for the live-streaming and trace-propagation surface: the SSE
// event stream (lifecycle ordering, immediate finals on cache hits,
// clean teardown on client disconnect and on drain), the end-to-end
// trace identity (header in, header out, every journal record
// stamped), and the service journal moving into serve.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathrouting/internal/runlog"
)

// sseFrame is one parsed SSE event.
type sseFrame struct {
	ID      string
	Type    string
	Doc     JobDoc
	Comment string // ": draining" etc., Type empty
}

// readFrames consumes an SSE stream until it ends (server close or
// ctx cancel via the request), returning every frame in order.
func readFrames(t *testing.T, body io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	flush := func() {
		if cur.Type != "" || cur.Comment != "" {
			frames = append(frames, cur)
		}
		cur = sseFrame{}
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, ": "):
			cur.Comment = strings.TrimPrefix(line, ": ")
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Doc); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	flush()
	return frames
}

func streamServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestSSEJobLifecycle: a streamed job yields started/shard events and
// a terminal final whose stats and certificate are exactly what a
// poll returns.
func TestSSEJobLifecycle(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	ts := streamServer(t, s)

	j, err := s.Submit(JobSpec{Alg: "strassen", K: 3, ShardRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != j.Trace() {
		t.Fatalf("stream trace header = %q, want %q", got, j.Trace())
	}

	frames := readFrames(t, resp.Body) // server closes the stream after final
	if len(frames) < 2 {
		t.Fatalf("frames: %+v", frames)
	}
	last := frames[len(frames)-1]
	if last.Type != eventFinal || last.Doc.State != StateDone {
		t.Fatalf("terminal frame = %+v", last)
	}
	sawShard := false
	for _, f := range frames {
		if f.Type == eventShard {
			sawShard = true
			if f.Doc.Progress == nil && f.Doc.State == StateRunning {
				t.Fatalf("shard frame without progress: %+v", f)
			}
		}
		if f.Doc.ID != j.ID() || f.Doc.Trace != j.Trace() {
			t.Fatalf("frame with wrong identity: %+v", f)
		}
	}
	if !sawShard {
		t.Fatalf("no shard frames in %+v", frames)
	}

	// The streamed terminal doc is byte-identical (as JSON) to a poll.
	polled := j.Snapshot()
	want, _ := json.Marshal(polled)
	got, _ := json.Marshal(last.Doc)
	if string(got) != string(want) {
		t.Fatalf("streamed final differs from polled doc:\n%s\n%s", got, want)
	}
	if last.Doc.Certificate == "" || last.Doc.Certificate != polled.Certificate {
		t.Fatalf("certificate mismatch: %q vs %q", last.Doc.Certificate, polled.Certificate)
	}
}

// TestSSECacheHitImmediateFinal: streaming a cache-hit job yields the
// final event immediately and the stream closes.
func TestSSECacheHitImmediateFinal(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	ts := streamServer(t, s)

	j1, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j1.ID())
	j2, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Snapshot().Cached {
		t.Fatalf("second submission not a cache hit")
	}

	start := time.Now()
	resp, err := http.Get(ts.URL + "/jobs/" + j2.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, resp.Body)
	if time.Since(start) > 5*time.Second {
		t.Fatal("cache-hit stream did not close promptly")
	}
	if len(frames) != 1 || frames[0].Type != eventFinal || !frames[0].Doc.Cached {
		t.Fatalf("cache-hit frames = %+v", frames)
	}
	if frames[0].Doc.Certificate == "" {
		t.Fatal("cache-hit final missing certificate")
	}
}

// TestSSEMidStreamDisconnect: a client dropping mid-run must not
// disturb the job or the server (run under -race, this also proves
// the subscriber teardown is clean).
func TestSSEMidStreamDisconnect(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	ts := streamServer(t, s)

	j, err := s.Submit(JobSpec{Alg: "strassen", K: 3, ShardRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+j.ID()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame, then hang up mid-stream.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	doc := waitTerminal(t, s, j.ID())
	if doc.State != StateDone {
		t.Fatalf("job after disconnect: %+v", doc)
	}
	// The broadcaster must have dropped the dead subscriber.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.events.mu.Lock()
		n := len(j.events.subs)
		j.events.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still attached after disconnect", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSSEDrainEndsStream: draining the server ends open streams with
// a goodbye comment instead of pinning the listener.
func TestSSEDrainEndsStream(t *testing.T) {
	s := newTestServer(t, Options{})
	// Not started: the job stays queued, so the stream would otherwise
	// sit open forever.
	ts := streamServer(t, s)
	j, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan []sseFrame, 1)
	go func() { done <- readFrames(t, resp.Body) }()
	time.Sleep(50 * time.Millisecond) // let the stream attach
	s.BeginDrain()
	select {
	case frames := <-done:
		if len(frames) == 0 || frames[0].Type != eventQueued {
			t.Fatalf("frames = %+v", frames)
		}
		last := frames[len(frames)-1]
		if last.Comment != "draining" {
			t.Fatalf("stream did not say goodbye: %+v", frames)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end on drain")
	}
}

// TestTracePropagation: a client-supplied X-Trace-Id is adopted,
// echoed on every response, stamped into every journal record the job
// emits (run_start, spans, shard_done, heartbeat, final), and an
// invalid one is rejected. Every heartbeat carries the schema-4
// resource block.
func TestTracePropagation(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	jw, err := runlog.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	s := newTestServer(t, Options{Journal: jw, Heartbeat: 10 * time.Millisecond})
	s.Start()
	ts := streamServer(t, s)

	const trace = "trace-propagation-test-0001"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"alg":"strassen","k":3,"shardrows":16}`))
	req.Header.Set(traceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(traceHeader); got != trace {
		t.Fatalf("submit trace header = %q, want %q", got, trace)
	}
	var doc JobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trace != trace {
		t.Fatalf("doc trace = %q, want %q", doc.Trace, trace)
	}
	final := waitTerminal(t, s, doc.ID)
	if final.State != StateDone || final.Trace != trace {
		t.Fatalf("final doc = %+v", final)
	}

	// GET echoes the trace too.
	getResp, err := http.Get(ts.URL + "/jobs/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if got := getResp.Header.Get(traceHeader); got != trace {
		t.Fatalf("get trace header = %q, want %q", got, trace)
	}

	// Every record the job journaled carries the trace and job ID.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec runlog.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if rec.Trace != trace || rec.Job != doc.ID {
			t.Fatalf("journal record without trace identity: %s", line)
		}
		if rec.Event == runlog.EventHeartbeat && (rec.Resources == nil || rec.Resources.HeapBytes <= 0) {
			t.Fatalf("heartbeat without a resource block: %s", line)
		}
		events[rec.Event]++
	}
	for _, want := range []string{runlog.EventRunStart, runlog.EventShardDone,
		runlog.EventSpan, runlog.EventHeartbeat, runlog.EventFinal} {
		if events[want] == 0 {
			t.Fatalf("journal missing %s records: %v", want, events)
		}
	}
	// The engine's spans made it through the context: a job_run span
	// plus per-shard spans.
	ttt, err := runlog.CollectTracesFiles(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ttt.Traces) != 1 || ttt.Traces[0].ID != trace {
		t.Fatalf("collected traces = %+v", ttt.Traces)
	}
	names := map[string]bool{}
	for _, sp := range ttt.Traces[0].Spans {
		names[sp.Name] = true
	}
	if !names["job_run"] || !names["shard_enumerate"] {
		t.Fatalf("span names = %v", names)
	}

	// Invalid trace IDs are rejected before anything runs.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"alg":"strassen","k":2}`))
	req.Header.Set(traceHeader, "bad trace id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid trace: %d", resp.StatusCode)
	}
}

// TestListNewestFirstBounded: GET /jobs returns newest first, bounded
// by ?limit=, with the total count alongside.
func TestListNewestFirstBounded(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 8})
	// Not started: jobs stay queued in submission order.
	var ids []string
	for _, k := range []int{1, 2, 3} {
		j, err := s.Submit(JobSpec{Alg: "strassen", K: k})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	ts := streamServer(t, s)

	var listing struct {
		Total int      `json:"total"`
		Jobs  []JobDoc `json:"jobs"`
	}
	getList := func(query string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list: %d", resp.StatusCode)
		}
		listing = struct {
			Total int      `json:"total"`
			Jobs  []JobDoc `json:"jobs"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
	}

	getList("")
	if listing.Total != 3 || len(listing.Jobs) != 3 {
		t.Fatalf("listing = %+v", listing)
	}
	for i, doc := range listing.Jobs { // newest first
		if doc.ID != ids[len(ids)-1-i] {
			t.Fatalf("listing order: %+v", listing.Jobs)
		}
	}
	getList("?limit=2")
	if listing.Total != 3 || len(listing.Jobs) != 2 || listing.Jobs[0].ID != ids[2] {
		t.Fatalf("bounded listing = %+v", listing)
	}
	resp, err := http.Get(ts.URL + "/jobs?limit=zero")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %d", resp.StatusCode)
	}
}

// TestHealthDraining: /healthz flips to "draining" after BeginDrain.
func TestHealthDraining(t *testing.T) {
	s := newTestServer(t, Options{})
	body, _ := json.Marshal(s.Health())
	if !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("health before drain: %s", body)
	}
	s.BeginDrain()
	body, _ = json.Marshal(s.Health())
	if !strings.Contains(string(body), `"status":"draining"`) {
		t.Fatalf("health during drain: %s", body)
	}
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 1}); err != ErrDraining {
		t.Fatalf("submit while draining: %v", err)
	}
}

// TestTraceSurvivesRestart: a job recovered from disk keeps the trace
// it was submitted with, and a submitted trace context derives fresh
// instruments without breaking the engine metrics.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir, QueueDepth: 4})
	// Not started: job stays queued on disk.
	j1, err := s1.SubmitTrace(JobSpec{Alg: "strassen", K: 2}, "restart-trace-01")
	if err != nil {
		t.Fatal(err)
	}
	if j1.Trace() != "restart-trace-01" {
		t.Fatalf("trace = %q", j1.Trace())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{DataDir: dir, QueueDepth: 4})
	j2, ok := s2.Get(j1.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j1.ID())
	}
	if j2.Trace() != "restart-trace-01" {
		t.Fatalf("recovered trace = %q, want restart-trace-01", j2.Trace())
	}
	s2.Start()
	doc := waitTerminal(t, s2, j2.ID())
	if doc.State != StateDone || doc.Trace != "restart-trace-01" {
		t.Fatalf("resumed job: %+v", doc)
	}
}
