package runlog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testWriter(t *testing.T) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.now = func() time.Time { return time.Unix(1700000000, 0) }
	return w, path
}

// TestEmitAppendRoundTrip writes a full run's worth of events across
// two Writer sessions (simulating a restart) and checks the reader
// sees everything, the resumed run's final last.
func TestEmitAppendRoundTrip(t *testing.T) {
	w, path := testWriter(t)
	base := Record{Tool: "routecheck", Alg: "strassen", K: 4, Workers: 2}
	start := base
	start.Event = EventRunStart
	if err := w.Emit(start); err != nil {
		t.Fatal(err)
	}
	shard := base
	shard.Event, shard.Shard, shard.ShardsDone, shard.ShardsTotal, shard.ShardPaths = EventShardDone, 0, 1, 4, 32768
	if err := w.Emit(shard); err != nil {
		t.Fatal(err)
	}
	paused := base
	paused.Event, paused.Paused, paused.Paths = EventFinal, true, 32768
	if err := w.Emit(paused); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session appends, never truncates.
	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	start.Resumed = true
	final := base
	final.Event, final.Paths, final.ElapsedSec, final.PathsPerSec = EventFinal, 131072, 2.0, 65536
	for _, rec := range []Record{start, final} {
		if err := w2.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	ts, err := CollectTracesFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Records != 5 || ts.Skipped != 0 || len(ts.Traces) != 1 {
		t.Fatalf("trace set = %+v", ts)
	}
	tr := ts.Traces[0]
	if tr.Starts != 2 || len(tr.Shards) != 1 || tr.Final == nil {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Final.Paused || tr.Final.Paths != 131072 || tr.Final.PathsPerSec != 65536 {
		t.Fatalf("last final = %+v", tr.Final)
	}
	head := tr.Header()
	if !strings.Contains(head, "strassen k=4") ||
		!strings.Contains(head, "final paths=131072 in 2.00s (65536 paths/s)") {
		t.Fatalf("header: %s", head)
	}
}

// TestSchemaAndTimestampStamped checks Emit owns the envelope fields.
func TestSchemaAndTimestampStamped(t *testing.T) {
	w, path := testWriter(t)
	if err := w.Emit(Record{Event: EventRunStart, Schema: 99, Time: "bogus"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := string(data)
	if !strings.Contains(line, `"schema":4`) || strings.Contains(line, "bogus") {
		t.Fatalf("envelope not stamped: %s", line)
	}
	if !strings.Contains(line, "2023-11-14T22:13:20Z") {
		t.Fatalf("timestamp not UTC RFC3339: %s", line)
	}
}

// TestNilWriterIsSink: a nil journal must be transparently usable.
func TestNilWriterIsSink(t *testing.T) {
	var w *Writer
	if err := w.Emit(Record{Event: EventFinal}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornJournal ends in a line torn by a kill and holds junk lines: one
// not JSON, one JSON without an event, one blank.
const tornJournal = `{"schema":1,"event":"run_start","tool":"routecheck","alg":"strassen","k":3}
not json at all
{"schema":1,"event":"violation","error":"vertex hit 999 > bound"}
{"plausible":"json","but":"no event"}

{"schema":1,"event":"final","alg":"strassen","k":3,"paths":8192,"paths_per_sec":1000}
{"schema":1,"event":"shard_done","sh`

// mixedJournal is one run journaled across binary versions: schema-1
// records, schema-2 spans and heartbeats, an event from a future
// schema, and a torn tail.
const mixedJournal = `{"schema":1,"event":"run_start","tool":"routecheck","alg":"strassen","k":4,"workers":2}
{"schema":1,"event":"shard_done","tool":"routecheck","alg":"strassen","k":4,"shard":0,"shards_done":1,"shards_total":8,"time":"2026-01-01T00:00:00Z"}
{"schema":2,"event":"span","tool":"routecheck","alg":"strassen","k":4,"span":"shard_enumerate","dur_sec":0.5,"attrs":{"shard":"1"},"time":"2026-01-01T00:00:01Z"}
{"schema":2,"event":"heartbeat","tool":"routecheck","alg":"strassen","k":4,"metrics":{"routing_paths_verified_total":4096}}
{"schema":3,"event":"quantum_flux","tool":"routecheck","alg":"strassen","k":4}
{"schema":2,"event":"final","tool":"routecheck","alg":"strassen","k":4,"paths":9834496,"paths_per_sec":250000}
{"schema":2,"event":"span","tool":"routecheck","alg":"str`

// TestCollectTracesTornAndForeignLines: a journal whose last line was
// torn by a kill, plus junk lines, still reads its intact records.
func TestCollectTracesTornAndForeignLines(t *testing.T) {
	ts, err := CollectTraces(strings.NewReader(tornJournal))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Records != 3 || ts.Skipped != 3 {
		t.Fatalf("records=%d skipped=%d, want 3/3", ts.Records, ts.Skipped)
	}
	var violations []string
	for _, tr := range ts.Traces {
		violations = append(violations, tr.Violations...)
		if len(tr.Violations) > 0 && !strings.Contains(tr.Header(), "VIOLATION: vertex hit 999") {
			t.Fatalf("header dropped the violation:\n%s", tr.Header())
		}
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "999") {
		t.Fatalf("violations = %v", violations)
	}
}

// TestCollectTracesMixedSchemas: a journal accumulated across binary
// versions must read the run records exactly as if the foreign ones
// were absent.
func TestCollectTracesMixedSchemas(t *testing.T) {
	ts, err := CollectTraces(strings.NewReader(mixedJournal))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Records != 6 || ts.Skipped != 1 {
		t.Fatalf("records=%d skipped=%d, want 6/1", ts.Records, ts.Skipped)
	}
	// Exactly one run: spans, heartbeats and the unknown event must not
	// fabricate traces of their own.
	if len(ts.Traces) != 1 {
		t.Fatalf("traces = %+v", ts.Traces)
	}
	tr := ts.Traces[0]
	if len(tr.Spans) != 1 || tr.Heartbeats != 1 || tr.Starts != 1 || len(tr.Shards) != 1 {
		t.Fatalf("trace contents = %+v", tr)
	}
	if tr.Final == nil || tr.Final.Paths != 9834496 {
		t.Fatalf("final = %+v", tr.Final)
	}
}

// TestSpanHeartbeatRoundTrip: schema-2 fields survive Emit and
// CollectTracesFiles.
func TestSpanHeartbeatRoundTrip(t *testing.T) {
	w, path := testWriter(t)
	if err := w.Emit(Record{Event: EventSpan, Span: "checkpoint_persist",
		SpanStart: "2023-11-14T22:13:19Z", DurSec: 0.25,
		Attrs: map[string]string{"shard": "3"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Emit(Record{Event: EventHeartbeat,
		Metrics: map[string]float64{"routing_paths_per_second": 12345.5}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"span":"checkpoint_persist"`, `"dur_sec":0.25`,
		`"attrs":{"shard":"3"}`, `"metrics":{"routing_paths_per_second":12345.5}`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("journal missing %q:\n%s", want, data)
		}
	}
	ts, err := CollectTracesFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Records != 2 || len(ts.Traces) != 1 {
		t.Fatalf("trace set = %+v", ts)
	}
	if tr := ts.Traces[0]; len(tr.Spans) != 1 || tr.Heartbeats != 1 {
		t.Fatalf("trace = %+v", tr)
	}
}
