package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAnalyzeGolden locks the full analysis report for the checked-in
// fixture journal — a routed job killed mid-run and resumed (one trace
// across both legs, with a restored-work credit), plus an untraced
// schema-2 run and a torn tail. Timestamps in the fixture are fixed,
// so the report is byte-stable.
func TestAnalyzeGolden(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-width", "40", "-buckets", "4", "testdata/journal.jsonl"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	golden := filepath.Join("testdata", "analyze.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("report drifted from golden (run `go test ./cmd/routelog -run Golden -update` if intended)\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// TestResourcesGolden locks the -resources cost table for two
// fixtures. journal.jsonl is the crash+resume fixture: the traced job
// reports the accumulated schema-4 Resources block of its last final
// record (both legs), the per-shard-second rate from its
// shard_enumerate spans, and the peak heap from its heartbeat; the
// schema-2 run reports its final's paths/s; a trace with neither
// reports that it has no resource records. cli.jsonl is CLI-shaped: a
// routecheck run whose final carries no Resources block but whose
// heartbeats do, and a paperrepro row without heartbeats — each
// reports its final paths/s, the routecheck run also its peak heap.
func TestResourcesGolden(t *testing.T) {
	for journal, golden := range map[string]string{
		"journal.jsonl": "resources.golden",
		"cli.jsonl":     "resources-cli.golden",
	} {
		t.Run(journal, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run([]string{"-resources", filepath.Join("testdata", journal)}, &out, &errOut)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			golden := filepath.Join("testdata", golden)
			if *update {
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Fatalf("cost table drifted from golden (run `go test ./cmd/routelog -run Golden -update` if intended)\n--- got ---\n%s\n--- want ---\n%s",
					out.String(), want)
			}
		})
	}
}

// TestResourcesMergesGenerations: the same job journaled across two
// daemon generations (the fixture split at the restart boundary into
// two files) reports one trace whose cost table carries the resumed
// leg's accumulated totals — identical to the single-file report.
func TestResourcesMergesGenerations(t *testing.T) {
	body, err := os.ReadFile("testdata/journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	cut := -1
	for i, line := range lines {
		if strings.Contains(line, `"resumed":true`) && strings.Contains(line, "run_start") {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("fixture lost its resumed run_start line")
	}
	dir := t.TempDir()
	legA := filepath.Join(dir, "gen1.jsonl")
	legB := filepath.Join(dir, "gen2.jsonl")
	if err := os.WriteFile(legA, []byte(strings.Join(lines[:cut], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legB, []byte(strings.Join(lines[cut:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var merged, single, errOut strings.Builder
	id := "3f2a9c81d4e6b05731fa8c2d9b40e617"
	if code := run([]string{"-resources", "-trace", id, legA, legB}, &merged, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-resources", "-trace", id, "testdata/journal.jsonl"}, &single, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	stripHeader := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if stripHeader(merged.String()) != stripHeader(single.String()) {
		t.Fatalf("merged generations diverge from single journal\n--- merged ---\n%s\n--- single ---\n%s",
			merged.String(), single.String())
	}
	if !strings.Contains(merged.String(), "legs 2") {
		t.Fatalf("merged report lost the cross-generation leg count:\n%s", merged.String())
	}
}

// TestAnalyzeTraceFilter: -trace narrows the report to one trace and
// errors on unknown IDs.
func TestAnalyzeTraceFilter(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-trace", "3f2a9c81d4e6b05731fa8c2d9b40e617", "testdata/journal.jsonl"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "trace 3f2a9c81d4e6b05731fa8c2d9b40e617") ||
		strings.Contains(out.String(), "untraced") {
		t.Fatalf("filtered report:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-trace", "nope", "testdata/journal.jsonl"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown trace: exit %d", code)
	}
}

// TestFollowReplaysJournal: -follow over a static journal replays its
// records as tail lines and stops at -followfor.
func TestFollowReplaysJournal(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-follow", "-followfor", "50ms", "-poll", "10ms", "testdata/journal.jsonl"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"3f2a9c81 j00000001 run_start  routed strassen k=3",
		"shard 0: 1/4 (+16384 paths)",
		"restored 2/4 (+32768 paths)",
		"job_run 3.200s",
		"paused at 32768 paths",
		"65536 paths in 3.20s",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("follow output missing %q:\n%s", want, got)
		}
	}
	// The torn tail must not fabricate a line.
	if strings.Contains(got, "11:00:02") {
		t.Fatalf("torn tail leaked:\n%s", got)
	}
}

// TestUsageErrors: bad invocations exit 2 without touching files.
func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run([]string{"-follow", "a.jsonl", "b.jsonl"}, &out, &errOut); code != 2 {
		t.Fatalf("-follow with two files: exit %d", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errOut); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
}
