package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pathrouting/internal/runlog"
)

func journalRecords(t *testing.T, path string) []runlog.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []runlog.Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec runlog.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("unparsable journal line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestSpanEmitsRunlogRecord: a span round-trips through the journal
// with its name, identity, duration, and attributes.
func TestSpanEmitsRunlogRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := runlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(w, runlog.Record{Tool: "routecheck", Alg: "strassen", K: 4})

	ctx := WithTracer(context.Background(), tr)
	_, span := StartSpan(ctx, "shard_enumerate")
	span.SetAttr("shard", "7")
	time.Sleep(time.Millisecond)
	span.End()
	span.End() // idempotent
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs := journalRecords(t, path)
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Event != runlog.EventSpan || rec.Span != "shard_enumerate" ||
		rec.Tool != "routecheck" || rec.Alg != "strassen" || rec.K != 4 {
		t.Fatalf("span record = %+v", rec)
	}
	if rec.DurSec <= 0 || rec.SpanStart == "" || rec.Attrs["shard"] != "7" {
		t.Fatalf("span timing/attrs = %+v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec.SpanStart); err != nil {
		t.Fatalf("span_start not RFC3339: %v", err)
	}

	// A journal of spans summarizes without error, counted as spans.
	s, err := runlog.SummarizeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spans != 1 || s.Skipped != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestNilTracerSpans: no tracer in context (or a nil tracer) must cost
// nothing and crash nothing.
func TestNilTracerSpans(t *testing.T) {
	_, span := StartSpan(context.Background(), "noop")
	span.SetAttr("k", "v")
	span.End()

	var tr *Tracer
	span = tr.StartSpan("noop")
	span.End()
	if got := TracerFrom(context.Background()); got != nil {
		t.Fatalf("TracerFrom(empty ctx) = %v", got)
	}
}

// TestHeartbeat: the emitter writes heartbeat records carrying the
// metric snapshot, including a final one at stop.
func TestHeartbeat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := runlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Counter("paths_total", "").Add(99)

	stop := StartHeartbeat(w, runlog.Record{Tool: "routecheck"}, reg, 5*time.Millisecond, nil)
	time.Sleep(25 * time.Millisecond)
	stop()
	stop() // idempotent
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs := journalRecords(t, path)
	if len(recs) < 2 {
		t.Fatalf("got %d heartbeats, want ≥ 2 (ticks plus final)", len(recs))
	}
	for _, rec := range recs {
		if rec.Event != runlog.EventHeartbeat || rec.Tool != "routecheck" {
			t.Fatalf("heartbeat record = %+v", rec)
		}
		if rec.Metrics["paths_total"] != 99 {
			t.Fatalf("heartbeat metrics = %v", rec.Metrics)
		}
	}

	// A hook beats without a journal, every tick plus the final beat.
	var beats atomic.Int64
	stop = StartHeartbeat(nil, runlog.Record{}, reg, 5*time.Millisecond, func() { beats.Add(1) })
	time.Sleep(25 * time.Millisecond)
	stop()
	if beats.Load() < 2 {
		t.Fatalf("hook ran %d times, want ≥ 2 (ticks plus final)", beats.Load())
	}

	// No-op configurations return usable stops.
	StartHeartbeat(nil, runlog.Record{}, reg, time.Second, nil)()
	StartHeartbeat(w, runlog.Record{}, reg, 0, func() { t.Error("zero interval beat") })()
}
