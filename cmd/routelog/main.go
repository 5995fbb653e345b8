// Command routelog is the reader of the runlog journal: it groups
// records by their schema-3 trace identity and reconstructs what each
// run actually did — a one-line header with the run's final paths,
// elapsed time and paths/s, a span waterfall (which shard
// enumerations overlapped, where checkpoint persists sat),
// per-span-name latency percentiles, and the shard-completion
// timeline. Stdlib only, like everything else here.
//
// Usage:
//
//	routelog [-trace ID] [-width 60] [-spans 40] [-buckets 8] journal.jsonl [more.jsonl...]
//	routelog -resources [-trace ID] journal.jsonl [more.jsonl...]
//	routelog -follow [-followfor 30s] [-poll 500ms] journal.jsonl
//
// With several journal files (say a crash leg and a resume leg), the
// records merge by trace, so one job journaled across restarts still
// reconstructs as a single run. -resources renders the per-trace cost
// table instead of the waterfall: what each job actually consumed —
// queue wait, CPU seconds, allocated bytes, paths/s, enumeration
// shard-time — reconstructed from the schema-4 Resources records and
// accumulated across daemon generations; a CLI trace, whose final
// record carries no such block, shows its final paths/s and its
// heartbeats' peak heap instead. -follow tails the journal
// and prints one line per new record as it lands — a poor man's live
// dashboard over nothing but the file.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pathrouting/internal/runlog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("routelog", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		trace     = fs.String("trace", "", "only analyze this trace ID")
		width     = fs.Int("width", 60, "timeline bar width in columns")
		spans     = fs.Int("spans", 40, "max waterfall rows per trace (0 = all)")
		buckets   = fs.Int("buckets", 8, "shard-timeline bucket count")
		resources = fs.Bool("resources", false, "render the per-trace cost table (schema-4 Resources records)")
		follow    = fs.Bool("follow", false, "tail the journal, printing new records as they land")
		followFor = fs.Duration("followfor", 0, "with -follow: stop after this long (0 = forever)")
		poll      = fs.Duration("poll", 500*time.Millisecond, "with -follow: file poll interval")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(errOut, "routelog: no journal files given")
		fs.Usage()
		return 2
	}
	if *follow {
		if len(paths) != 1 {
			fmt.Fprintln(errOut, "routelog: -follow tails exactly one journal")
			return 2
		}
		if err := followJournal(paths[0], *trace, *followFor, *poll, out); err != nil {
			fmt.Fprintln(errOut, "routelog:", err)
			return 1
		}
		return 0
	}
	if *resources {
		if err := resourceReport(paths, *trace, out); err != nil {
			fmt.Fprintln(errOut, "routelog:", err)
			return 1
		}
		return 0
	}
	if err := analyze(paths, *trace, *width, *spans, *buckets, out); err != nil {
		fmt.Fprintln(errOut, "routelog:", err)
		return 1
	}
	return 0
}

// resourceReport renders the per-trace cost table: for each trace,
// the accumulated Resources block its last final record carried
// (internal/serve folds every crash/resume leg into it, so the last
// final across merged journals is the cross-generation total), plus
// derived rates — paths per wall second and per shard-enumeration
// second — and the peak heap any schema-4 heartbeat observed. A trace
// whose final carries no block (routecheck and paperrepro runs) still
// reports its final paths/s and peak heap.
func resourceReport(paths []string, only string, out io.Writer) error {
	ts, err := runlog.CollectTracesFiles(paths...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "journal: %d records (%d skipped), %d traces\n",
		ts.Records, ts.Skipped, len(ts.Traces))
	shown := 0
	for _, t := range ts.Traces {
		if only != "" && t.ID != only {
			continue
		}
		shown++
		fmt.Fprintf(out, "\n%s\n", traceIdent(t))
		res := resourcesOf(t)
		pps := pathsPerSec(t, res)
		if res == nil && pps == 0 && t.PeakHeapBytes == 0 {
			fmt.Fprintf(out, "  no resource records (pre-schema-4 journal)\n")
			continue
		}
		if res != nil {
			legs := res.Legs
			if legs == 0 {
				legs = t.Starts
			}
			fmt.Fprintf(out, "  legs %d  wall %.2fs  queue-wait %.2fs  cpu %.2fs  allocs %s\n",
				legs, res.WallSeconds, res.QueueWaitSeconds, res.CPUSeconds, formatBytes(res.AllocBytes))
		}
		if t.Final != nil && t.Final.Paths > 0 {
			line := fmt.Sprintf("  paths %d", t.Final.Paths)
			if pps > 0 {
				line += fmt.Sprintf("  %.0f paths/s", pps)
			}
			if st := shardSeconds(t); st > 0 {
				line += fmt.Sprintf("  shard-time %.2fs  %.0f paths per shard-sec",
					st, float64(t.Final.Paths)/st)
			}
			fmt.Fprintln(out, line)
		}
		if t.PeakHeapBytes > 0 {
			fmt.Fprintf(out, "  peak heap %s\n", formatBytes(t.PeakHeapBytes))
		}
	}
	if only != "" && shown == 0 {
		return fmt.Errorf("no records for trace %q", only)
	}
	return nil
}

// traceIdent is the trace's identity plus how it ended (no span/shard
// counts — the cost table has its own lines).
func traceIdent(t *runlog.Trace) string {
	var b strings.Builder
	b.WriteString(t.Ident())
	switch {
	case t.Final == nil:
		b.WriteString("  (no final record)")
	case t.Final.Error != "":
		fmt.Fprintf(&b, "  FAILED: %s", t.Final.Error)
	case t.Final.Paused:
		b.WriteString("  (paused)")
	}
	return b.String()
}

// resourcesOf picks the trace's accumulated cost block: the last
// final record's Resources (serve accumulates across legs, so the
// last final is the total).
func resourcesOf(t *runlog.Trace) *runlog.Resources {
	if t.Final == nil || t.Final.Resources == nil {
		return nil
	}
	return t.Final.Resources
}

// pathsPerSec prefers the accumulated cross-leg rate; CLI and older
// records fall back to the final record's single-leg rate (0 without
// a final).
func pathsPerSec(t *runlog.Trace, res *runlog.Resources) float64 {
	switch {
	case res != nil && res.PathsPerSec > 0:
		return res.PathsPerSec
	case t.Final != nil:
		return t.Final.PathsPerSec
	}
	return 0
}

// shardSeconds sums the trace's shard_enumerate span durations — the
// time actually spent enumerating paths, as opposed to merging,
// persisting checkpoints, or waiting in the queue.
func shardSeconds(t *runlog.Trace) float64 {
	var sum float64
	for _, sp := range t.Spans {
		if sp.Name == "shard_enumerate" {
			sum += sp.Dur.Seconds()
		}
	}
	return sum
}

// formatBytes renders a byte count with a binary unit, one decimal.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// analyze renders the trace report for one or more journal files.
func analyze(paths []string, only string, width, spans, buckets int, out io.Writer) error {
	ts, err := runlog.CollectTracesFiles(paths...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "journal: %d records (%d skipped), %d traces\n",
		ts.Records, ts.Skipped, len(ts.Traces))
	shown := 0
	for _, t := range ts.Traces {
		if only != "" && t.ID != only {
			continue
		}
		shown++
		fmt.Fprintf(out, "\n%s\n", t.Header())
		if wf := t.Waterfall(width, spans); wf != "" {
			fmt.Fprintf(out, " waterfall:\n%s", wf)
		}
		if tl := t.ShardTimeline(buckets, width/2); tl != "" {
			fmt.Fprintf(out, " shard timeline:\n%s", tl)
		}
	}
	if only != "" && shown == 0 {
		return fmt.Errorf("no records for trace %q", only)
	}
	if lats := ts.SpanLatencies(); len(lats) > 0 && only == "" {
		fmt.Fprintf(out, "\nspan latencies (all traces):\n%s", runlog.FormatLatencies(lats))
	}
	return nil
}

// followJournal tails one journal file: existing records print first
// (replay), then each new line as the file grows. Rotation-free
// append-only journals make this a simple offset chase.
func followJournal(path, only string, stopAfter, poll time.Duration, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var deadline <-chan time.Time
	if stopAfter > 0 {
		timer := time.NewTimer(stopAfter)
		defer timer.Stop()
		deadline = timer.C
	}
	r := bufio.NewReader(f)
	var partial strings.Builder
	for {
		for {
			line, err := r.ReadString('\n')
			if err == io.EOF {
				// Torn tail: keep the fragment for the next poll round.
				partial.WriteString(line)
				break
			}
			if err != nil {
				return err
			}
			full := partial.String() + line
			partial.Reset()
			if rec, ok := runlog.ParseRecord(full); ok && (only == "" || rec.Trace == only) {
				fmt.Fprintln(out, followLine(rec))
			}
		}
		select {
		case <-deadline:
			return nil
		case <-time.After(poll):
		}
	}
}

// followLine renders one record as a compact tail line, using the
// record's own timestamp so output is reproducible from the file.
func followLine(rec runlog.Record) string {
	clock := rec.Time
	if at, err := time.Parse(time.RFC3339Nano, rec.Time); err == nil {
		clock = at.Format("15:04:05")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s", clock)
	if rec.Trace != "" {
		short := rec.Trace
		if len(short) > 8 {
			short = short[:8]
		}
		fmt.Fprintf(&b, " %s", short)
	}
	if rec.Job != "" {
		fmt.Fprintf(&b, " %s", rec.Job)
	}
	fmt.Fprintf(&b, " %-10s", rec.Event)
	switch rec.Event {
	case runlog.EventRunStart:
		fmt.Fprintf(&b, " %s %s k=%d", rec.Tool, rec.Alg, rec.K)
		if rec.Resumed {
			b.WriteString(" (resumed)")
		}
	case runlog.EventShardDone:
		if rec.Shard < 0 {
			fmt.Fprintf(&b, " restored %d/%d (+%d paths)", rec.ShardsDone, rec.ShardsTotal, rec.ShardPaths)
		} else {
			fmt.Fprintf(&b, " shard %d: %d/%d (+%d paths)", rec.Shard, rec.ShardsDone, rec.ShardsTotal, rec.ShardPaths)
		}
	case runlog.EventSpan:
		fmt.Fprintf(&b, " %s %.3fs", rec.Span, rec.DurSec)
	case runlog.EventHeartbeat:
		fmt.Fprintf(&b, " %d metrics", len(rec.Metrics))
	case runlog.EventViolation:
		fmt.Fprintf(&b, " %s", rec.Error)
	case runlog.EventFinal:
		switch {
		case rec.Error != "":
			fmt.Fprintf(&b, " FAILED: %s", rec.Error)
		case rec.Paused:
			fmt.Fprintf(&b, " paused at %d paths", rec.Paths)
		default:
			fmt.Fprintf(&b, " %d paths in %.2fs", rec.Paths, rec.ElapsedSec)
		}
	}
	return b.String()
}
