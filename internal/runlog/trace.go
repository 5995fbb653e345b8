package runlog

// Trace-grouped journal analysis: the one journal reader, behind
// cmd/routelog. CollectTraces groups records by their schema-3 trace
// identity and keeps the per-record timing, so one journal
// reconstructs what a run actually did: a span waterfall (which
// shard enumerations overlapped, where checkpoint persists sat),
// per-span-name latency percentiles, and the shard-completion
// timeline. Records without a trace field (schema-1/2 journals,
// daemon-level events) group by job ID when present, else by (tool,
// alg, k), so pre-trace journals still render.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// A TraceSpan is one completed span record with parsed timing.
type TraceSpan struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs map[string]string
}

// A TraceShard is one shard_done record with parsed timing.
type TraceShard struct {
	Time        time.Time
	Shard       int64
	Done, Total int64
	Paths       int64
	Restored    bool // the synthetic restored-work credit of a resumed run
}

// A Trace is every record sharing one trace identity, in journal order.
type Trace struct {
	// ID is the trace ID, or a synthesized group key for untraced
	// records (job ID, else "tool alg k=K (untraced)").
	ID     string
	Traced bool // ID is a real schema-3 trace field
	Job    string
	Tool   string
	Alg    string
	K      int

	Spans      []TraceSpan
	Shards     []TraceShard
	Heartbeats int
	Violations []string
	Final      *Record // last final record, nil if the run never finished
	// Starts counts run_start records — for a service job, the number
	// of daemon generations (legs) that worked on it.
	Starts int
	// PeakHeapBytes is the largest heap snapshot any schema-4 heartbeat
	// of the trace carried (0 when no heartbeat carried resources).
	PeakHeapBytes int64

	Start, End time.Time // extent across every timed record
}

// A TraceSet is a journal parsed into traces, first-appearance order.
type TraceSet struct {
	Traces  []*Trace
	Records int
	Skipped int
}

// groupKey picks the trace identity of a record.
func groupKey(rec *Record) (id string, traced bool) {
	switch {
	case rec.Trace != "":
		return rec.Trace, true
	case rec.Job != "":
		return rec.Job, false
	default:
		return fmt.Sprintf("%s %s k=%d (untraced)", rec.Tool, rec.Alg, rec.K), false
	}
}

// observe widens the trace extent to cover [from, to].
func (t *Trace) observe(from, to time.Time) {
	if t.Start.IsZero() || from.Before(t.Start) {
		t.Start = from
	}
	if to.After(t.End) {
		t.End = to
	}
}

// CollectTraces parses a journal stream into traces. Lines ParseRecord
// rejects (torn tails, other formats) count as Skipped and are never
// fatal; parsable records with an unparsable timestamp are
// kept but cannot widen the trace's time extent.
func CollectTraces(r io.Reader) (*TraceSet, error) {
	ts := &TraceSet{}
	byKey := make(map[string]*Trace)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec, ok := ParseRecord(line)
		if !ok {
			ts.Skipped++
			continue
		}
		ts.Records++
		key, traced := groupKey(&rec)
		t := byKey[key]
		if t == nil {
			t = &Trace{ID: key, Traced: traced}
			byKey[key] = t
			ts.Traces = append(ts.Traces, t)
		}
		// Identity fields: first non-empty value wins, so a trace whose
		// run_start lacks alg/k still picks them up from later records.
		if t.Job == "" {
			t.Job = rec.Job
		}
		if t.Tool == "" {
			t.Tool = rec.Tool
		}
		if t.Alg == "" {
			t.Alg = rec.Alg
		}
		if t.K == 0 {
			t.K = rec.K
		}
		at, hasTime := parseRecTime(rec.Time)
		if hasTime {
			t.observe(at, at)
		}
		switch rec.Event {
		case EventRunStart:
			t.Starts++
		case EventSpan:
			dur := time.Duration(rec.DurSec * float64(time.Second))
			start, ok := parseRecTime(rec.SpanStart)
			if !ok && hasTime {
				start = at.Add(-dur) // older spans: end time minus duration
				ok = true
			}
			if ok {
				t.Spans = append(t.Spans, TraceSpan{Name: rec.Span, Start: start, Dur: dur, Attrs: rec.Attrs})
				t.observe(start, start.Add(dur))
			}
		case EventShardDone:
			if hasTime {
				t.Shards = append(t.Shards, TraceShard{
					Time: at, Shard: rec.Shard, Done: rec.ShardsDone,
					Total: rec.ShardsTotal, Paths: rec.ShardPaths,
					Restored: rec.Shard < 0,
				})
			}
		case EventHeartbeat:
			t.Heartbeats++
			if rec.Resources != nil && rec.Resources.HeapBytes > t.PeakHeapBytes {
				t.PeakHeapBytes = rec.Resources.HeapBytes
			}
		case EventViolation:
			t.Violations = append(t.Violations, rec.Error)
		case EventFinal:
			final := rec
			t.Final = &final
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	for _, t := range ts.Traces {
		sort.SliceStable(t.Spans, func(i, j int) bool { return t.Spans[i].Start.Before(t.Spans[j].Start) })
	}
	return ts, nil
}

// CollectTracesFiles folds one or more journal files into a TraceSet;
// records from all files merge by trace identity, so a run journaled
// across rotated files still reconstructs.
func CollectTracesFiles(paths ...string) (*TraceSet, error) {
	ts := &TraceSet{}
	byKey := make(map[string]*Trace)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("runlog: %w", err)
		}
		one, err := CollectTraces(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		ts.Records += one.Records
		ts.Skipped += one.Skipped
		for _, t := range one.Traces {
			if have := byKey[t.ID]; have != nil {
				have.merge(t)
			} else {
				byKey[t.ID] = t
				ts.Traces = append(ts.Traces, t)
			}
		}
	}
	return ts, nil
}

// merge folds another file's view of the same trace into t.
func (t *Trace) merge(o *Trace) {
	t.Spans = append(t.Spans, o.Spans...)
	sort.SliceStable(t.Spans, func(i, j int) bool { return t.Spans[i].Start.Before(t.Spans[j].Start) })
	t.Shards = append(t.Shards, o.Shards...)
	t.Heartbeats += o.Heartbeats
	t.Starts += o.Starts
	if o.PeakHeapBytes > t.PeakHeapBytes {
		t.PeakHeapBytes = o.PeakHeapBytes
	}
	t.Violations = append(t.Violations, o.Violations...)
	if o.Final != nil {
		t.Final = o.Final
	}
	if !o.Start.IsZero() {
		t.observe(o.Start, o.End)
	}
}

// Ident renders the trace's identity: its ID and, for a traced run,
// the tool, algorithm, depth and job that ran it.
func (t *Trace) Ident() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s", t.ID)
	if t.Traced {
		ident := strings.TrimSpace(fmt.Sprintf("%s %s", t.Tool, t.Alg))
		if ident != "" {
			fmt.Fprintf(&b, "  %s", ident)
		}
		if t.K > 0 {
			fmt.Fprintf(&b, " k=%d", t.K)
		}
		if t.Job != "" {
			fmt.Fprintf(&b, " job=%s", t.Job)
		}
	}
	return b.String()
}

// Header renders the one-line trace summary: the identity, what the
// journal holds of the run, and how it ended — for a finished run with
// its final record's elapsed time and paths/s, the figures to compare
// when one run is slower than the last.
func (t *Trace) Header() string {
	var b strings.Builder
	b.WriteString(t.Ident())
	fmt.Fprintf(&b, ": %d spans, %d shard events, %d heartbeats", len(t.Spans), len(t.Shards), t.Heartbeats)
	if !t.Start.IsZero() {
		fmt.Fprintf(&b, ", %.3fs", t.End.Sub(t.Start).Seconds())
	}
	switch {
	case t.Final == nil:
		b.WriteString(" — no final record")
	case t.Final.Error != "":
		fmt.Fprintf(&b, " — FAILED: %s", t.Final.Error)
	case t.Final.Paused:
		fmt.Fprintf(&b, " — paused at %d paths", t.Final.Paths)
	default:
		fmt.Fprintf(&b, " — final paths=%d", t.Final.Paths)
		if t.Final.ElapsedSec > 0 {
			fmt.Fprintf(&b, " in %.2fs (%.0f paths/s)", t.Final.ElapsedSec, t.Final.PathsPerSec)
		}
	}
	for _, v := range t.Violations {
		fmt.Fprintf(&b, "\n  VIOLATION: %s", v)
	}
	return b.String()
}

// Waterfall renders the trace's spans as a text gantt: one row per
// span, positioned on a width-column timeline spanning the trace
// extent. Rows beyond maxRows collapse into a trailing count, so a
// 10⁴-shard run stays printable (the latency table still covers every
// span).
func (t *Trace) Waterfall(width, maxRows int) string {
	if len(t.Spans) == 0 {
		return ""
	}
	if width < 10 {
		width = 10
	}
	if maxRows <= 0 {
		maxRows = len(t.Spans)
	}
	total := t.End.Sub(t.Start).Seconds()
	if total <= 0 {
		total = 1e-9
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %9s %9s  %s\n", "start", "dur", strings.Repeat("-", width))
	rows := t.Spans
	dropped := 0
	if len(rows) > maxRows {
		dropped = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	for _, sp := range rows {
		startSec := sp.Start.Sub(t.Start).Seconds()
		endSec := startSec + sp.Dur.Seconds()
		lo := int(startSec / total * float64(width))
		hi := int(endSec / total * float64(width))
		if lo >= width {
			lo = width - 1
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", width-hi)
		fmt.Fprintf(&b, "  %8.3fs %8.3fs  %s  %s\n", startSec, sp.Dur.Seconds(), bar, spanLabel(sp))
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "  … %d more spans (raise -spans, or see the latency table)\n", dropped)
	}
	return b.String()
}

// spanLabel renders a span's name plus its attributes, sorted for
// deterministic output.
func spanLabel(sp TraceSpan) string {
	if len(sp.Attrs) == 0 {
		return sp.Name
	}
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+sp.Attrs[k])
	}
	return sp.Name + "(" + strings.Join(parts, ",") + ")"
}

// ShardTimeline renders the trace's shard completions bucketed over
// the shard window: per bucket, shards completed, paths enumerated,
// and a bar scaled to the busiest bucket — where a run sped up,
// stalled, or resumed. The synthetic restored-work credit of a resumed
// run is reported separately, not drawn as throughput.
func (t *Trace) ShardTimeline(buckets, width int) string {
	live := make([]TraceShard, 0, len(t.Shards))
	var restored *TraceShard
	for i := range t.Shards {
		if t.Shards[i].Restored {
			restored = &t.Shards[i]
		} else {
			live = append(live, t.Shards[i])
		}
	}
	var b strings.Builder
	if restored != nil {
		fmt.Fprintf(&b, "  restored from checkpoint: %d/%d shards, %d paths\n",
			restored.Done, restored.Total, restored.Paths)
	}
	if len(live) == 0 {
		return b.String()
	}
	if buckets < 1 {
		buckets = 1
	}
	if width < 1 {
		width = 20
	}
	lo, hi := live[0].Time, live[0].Time
	for _, s := range live[1:] {
		if s.Time.Before(lo) {
			lo = s.Time
		}
		if s.Time.After(hi) {
			hi = s.Time
		}
	}
	window := hi.Sub(lo).Seconds()
	if window <= 0 || len(live) == 1 {
		buckets = 1
	}
	type bucket struct {
		shards int
		paths  int64
	}
	bs := make([]bucket, buckets)
	for _, s := range live {
		i := 0
		if buckets > 1 {
			i = int(s.Time.Sub(lo).Seconds() / window * float64(buckets))
			if i >= buckets {
				i = buckets - 1
			}
		}
		bs[i].shards++
		bs[i].paths += s.Paths
	}
	var maxPaths int64 = 1
	for _, bk := range bs {
		if bk.paths > maxPaths {
			maxPaths = bk.paths
		}
	}
	per := window / float64(buckets)
	for i, bk := range bs {
		// A journal is outside input: a negative shard_paths draws no bar.
		bar := strings.Repeat("#", max(0, int(float64(bk.paths)/float64(maxPaths)*float64(width))))
		fmt.Fprintf(&b, "  %8.3fs-%8.3fs  %3d shards %12d paths  %s\n",
			float64(i)*per, float64(i+1)*per, bk.shards, bk.paths, bar)
	}
	return b.String()
}

// A SpanLatency is the latency roll-up of one span name.
type SpanLatency struct {
	Name               string
	Count              int
	P50, P95, P99, Max float64 // seconds
}

// SpanLatencies aggregates every span in the set by name, with
// nearest-rank percentiles, sorted by name.
func (ts *TraceSet) SpanLatencies() []SpanLatency {
	byName := make(map[string][]float64)
	for _, t := range ts.Traces {
		for _, sp := range t.Spans {
			byName[sp.Name] = append(byName[sp.Name], sp.Dur.Seconds())
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpanLatency, 0, len(names))
	for _, name := range names {
		durs := byName[name]
		sort.Float64s(durs)
		out = append(out, SpanLatency{
			Name:  name,
			Count: len(durs),
			P50:   percentile(durs, 0.50),
			P95:   percentile(durs, 0.95),
			P99:   percentile(durs, 0.99),
			Max:   durs[len(durs)-1],
		})
	}
	return out
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// FormatLatencies renders the latency table.
func FormatLatencies(rows []SpanLatency) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-24s %7s %10s %10s %10s %10s\n", "span", "count", "p50", "p95", "p99", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %7d %9.3fs %9.3fs %9.3fs %9.3fs\n",
			r.Name, r.Count, r.P50, r.P95, r.P99, r.Max)
	}
	return b.String()
}

// parseRecTime parses a record timestamp (RFC 3339, as Emit writes).
func parseRecTime(s string) (time.Time, bool) {
	if s == "" {
		return time.Time{}, false
	}
	at, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, false
	}
	return at, true
}
