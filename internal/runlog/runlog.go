// Package runlog is the structured run journal for long verification
// runs: an append-only JSONL file with one self-describing record per
// event (run start, shard completion, Routing Theorem violation, final
// stats). The format is crash-tolerant by construction — each record is
// a single line, written with a single Write call, so a torn final line
// from a killed process never corrupts the lines before it — and the
// one line decoder (ParseRecord, behind CollectTraces and routelog's
// -follow) skips unparsable lines instead of failing, so a journal that
// outlived several interrupted runs still reads.
package runlog

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// SchemaVersion is stamped into every record so future readers can
// evolve the format without guessing. Schema 2 adds the span and
// heartbeat event types (see internal/obs); schema 3 adds the
// trace/job identity fields, so every record of a service job links
// back to its end-to-end trace; schema 4 adds the compact Resources
// block (process self-telemetry on heartbeats, accumulated per-job
// cost on final records). Schema-1 through schema-3 records remain
// valid, and readers skip event types and fields they do not know, so
// journals mixing schemas — or containing events from a future
// schema — read without error.
const SchemaVersion = 4

// Event names. A journal may contain any mix, across multiple runs.
const (
	EventRunStart  = "run_start"
	EventShardDone = "shard_done"
	EventViolation = "violation"
	EventFinal     = "final"
	// EventSpan (schema 2) is one completed trace span: a named,
	// timed section of a run (shard enumeration, checkpoint persist)
	// with optional attributes.
	EventSpan = "span"
	// EventHeartbeat (schema 2) is a periodic liveness record carrying
	// a snapshot of the run's metrics registry, so a journal alone
	// reconstructs the progress timeline of a crashed run.
	EventHeartbeat = "heartbeat"
)

// Record is one journal line. Fields are a union across event types;
// encoding omits the ones an event doesn't use.
type Record struct {
	Schema  int    `json:"schema"`
	Event   string `json:"event"`
	Time    string `json:"time"` // RFC 3339, UTC
	Tool    string `json:"tool,omitempty"`
	Alg     string `json:"alg,omitempty"`
	K       int    `json:"k,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// trace propagation (schema 3): the end-to-end trace ID minted (or
	// accepted) at submission, and the executing service's job ID.
	// Every record a traced run emits carries both, so one journal
	// reconstructs per-job waterfalls (see CollectTraces / cmd/routelog).
	Trace string `json:"trace,omitempty"`
	Job   string `json:"job,omitempty"`

	// shard_done
	Shard       int64 `json:"shard,omitempty"`
	ShardsDone  int64 `json:"shards_done,omitempty"`
	ShardsTotal int64 `json:"shards_total,omitempty"`
	ShardPaths  int64 `json:"shard_paths,omitempty"`

	// violation
	Error string `json:"error,omitempty"`

	// span (schema 2)
	Span      string            `json:"span,omitempty"`
	SpanStart string            `json:"span_start,omitempty"` // RFC 3339, UTC
	DurSec    float64           `json:"dur_sec,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`

	// heartbeat (schema 2)
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Resources (schema 4) is the compact resource block: on heartbeat
	// records a process self-telemetry snapshot, on final records the
	// job's accumulated cost across every crash/resume leg.
	Resources *Resources `json:"res,omitempty"`

	// final
	Paths         int64   `json:"paths,omitempty"`
	TotalHits     int64   `json:"total_hits,omitempty"`
	MaxVertexHits int64   `json:"max_vertex_hits,omitempty"`
	MaxMetaHits   int64   `json:"max_meta_hits,omitempty"`
	Bound         int64   `json:"bound,omitempty"`
	AdjChecked    int64   `json:"adj_checked,omitempty"`
	ElapsedSec    float64 `json:"elapsed_sec,omitempty"`
	PathsPerSec   float64 `json:"paths_per_sec,omitempty"`
	Resumed       bool    `json:"resumed,omitempty"`
	Paused        bool    `json:"paused,omitempty"`
}

// Resources is the schema-4 compact resource block. It is a union of
// two uses, with omitempty keeping each record small: heartbeat
// records carry the process fields (heap, goroutines, GC, cumulative
// CPU and allocation), final records carry the per-job accounting
// fields (wall, queue wait, CPU seconds, allocated bytes, paths/s,
// legs) accumulated across every crash/resume leg of the job.
type Resources struct {
	// process self-telemetry (heartbeats)
	HeapBytes  int64   `json:"heap_bytes,omitempty"`
	Goroutines int64   `json:"goroutines,omitempty"`
	GCCycles   int64   `json:"gc_cycles,omitempty"`
	GCPauseP99 float64 `json:"gc_pause_p99,omitempty"` // seconds
	Uptime     float64 `json:"uptime_sec,omitempty"`

	// per-job accounting (final records); CPUSeconds and AllocBytes
	// double as the process-cumulative values on heartbeats.
	WallSeconds      float64 `json:"wall_sec,omitempty"`
	QueueWaitSeconds float64 `json:"queue_wait_sec,omitempty"`
	CPUSeconds       float64 `json:"cpu_sec,omitempty"`
	AllocBytes       int64   `json:"alloc_bytes,omitempty"`
	PathsPerSec      float64 `json:"paths_per_sec,omitempty"`
	Legs             int     `json:"legs,omitempty"` // daemon generations that ran the job
}

// Writer appends records to a journal file. A nil *Writer is a valid
// no-op sink, so callers can thread an optional journal without
// branching at every emit site.
type Writer struct {
	f   *os.File
	now func() time.Time
}

// Open opens (creating if needed) a journal for appending.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Writer{f: f, now: time.Now}, nil
}

// Close closes the underlying file. Safe on nil.
func (w *Writer) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// Emit stamps the schema version and timestamp onto rec and appends it
// as one JSON line. Safe on nil (drops the record). Each record is a
// single Write call, so concurrent emitters from one process interleave
// at line granularity and a crash tears at most the final line.
func (w *Writer) Emit(rec Record) error {
	if w == nil || w.f == nil {
		return nil
	}
	rec.Schema = SchemaVersion
	rec.Time = w.now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	_, err = w.f.Write(append(line, '\n'))
	return err
}

// ParseRecord decodes one journal line. It reports false for a line
// that is not a record — a torn tail from a killed run, another format,
// JSON without an event — so readers skip it instead of failing.
func ParseRecord(line string) (Record, bool) {
	var rec Record
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &rec); err != nil || rec.Event == "" {
		return Record{}, false
	}
	return rec, true
}
