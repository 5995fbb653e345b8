package runlog

import (
	"os"
	"strings"
	"testing"
)

// FuzzCollectTraces: the journal reader takes any bytes — torn tails,
// other programs' output, records from a future schema — without
// panicking, counts every non-blank line as either a record or a
// skipped line, and accepts exactly the lines ParseRecord accepts.
// Every rendering routelog makes of what it read must not panic
// either.
func FuzzCollectTraces(f *testing.F) {
	fixture, err := os.ReadFile("../../cmd/routelog/testdata/journal.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	// A negative shard_paths once drew a negative-length timeline bar.
	negative := `{"schema":3,"event":"shard_done","trace":"b","shard":3,"shard_paths":-50,"time":"2026-01-01T00:00:01Z"}`
	for _, seed := range []string{string(fixture), tornJournal, mixedJournal, traceJournal, negative} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, journal string) {
		ts, err := CollectTraces(strings.NewReader(journal))
		if err != nil {
			t.Fatalf("CollectTraces: %v", err)
		}
		lines := 0
		for _, line := range strings.Split(journal, "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			lines++
			_, parsed := ParseRecord(line)
			one, err := CollectTraces(strings.NewReader(line))
			if err != nil {
				t.Fatalf("CollectTraces(%q): %v", line, err)
			}
			if one.Records+one.Skipped != 1 || (one.Records == 1) != parsed {
				t.Fatalf("line %q: ParseRecord ok=%v, CollectTraces records=%d skipped=%d",
					line, parsed, one.Records, one.Skipped)
			}
		}
		if ts.Records+ts.Skipped != lines {
			t.Fatalf("records %d + skipped %d != %d non-blank lines", ts.Records, ts.Skipped, lines)
		}
		for _, tr := range ts.Traces {
			tr.Header()
			tr.Waterfall(40, 10)
			tr.ShardTimeline(4, 20)
		}
		FormatLatencies(ts.SpanLatencies())
	})
}
