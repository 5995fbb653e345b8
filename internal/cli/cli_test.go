package cli

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
)

// TestFailFlushesCPUProfile: a command that fails after Start exits 1
// through os.Exit, which skips deferred calls, and still leaves a
// complete CPU profile behind. The failing command is this test binary
// re-executed.
func TestFailFlushesCPUProfile(t *testing.T) {
	if path := os.Getenv("CLI_TEST_CPUPROFILE"); path != "" {
		s, err := Start(&Flags{CPUProfile: path}, runlog.Record{}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "start:", err)
			os.Exit(5)
		}
		defer s.Close() // skipped by the os.Exit in Fail
		s.Fail(errors.New("boom"))
	}
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailFlushesCPUProfile$")
	cmd.Env = append(os.Environ(), "CLI_TEST_CPUPROFILE="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exit = %v, want status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "error: boom") {
		t.Fatalf("child output lacks the error:\n%s", out)
	}
	strs, err := profileStrings(path)
	if err != nil {
		t.Fatalf("CPU profile: %v", err)
	}
	if !strs["cpu"] || !strs["nanoseconds"] {
		t.Fatalf("CPU profile string table lacks the cpu/nanoseconds sample type: %v", strs)
	}
}

// profileStrings parses a gzipped pprof profile down to its protobuf
// wire format and returns its string table (Profile field 6).
func profileStrings(path string) (map[string]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, errors.New("empty file")
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	strs := map[string]bool{}
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errors.New("bad length")
			}
			if key>>3 == 6 {
				strs[string(b[n:n+int(l)])] = true
			}
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("wire type %d", key&7)
		}
	}
	return strs, nil
}

// TestVerifyFullRoutingJournal: one full routing journals run_start,
// a shard_done per shard and a final record carrying the stats, all
// under the caller's identity; a run stopped at MaxShards journals a
// paused final.
func TestVerifyFullRoutingJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	s, err := Start(&Flags{Journal: journal}, runlog.Record{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cdag.New(bilinear.Strassen(), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := runlog.Record{Tool: "clitest", Alg: "strassen", K: 2, Workers: 1, Trace: "t1"}
	verify := func(cfg routing.CheckpointConfig) (routing.Stats, error) {
		r, err := routing.NewRouter(g)
		if err != nil {
			t.Fatal(err)
		}
		return s.VerifyFullRouting(r, base, 1, cfg)
	}
	var shards int64
	st, err := verify(routing.CheckpointConfig{ShardRows: 4, OnShard: func(routing.ShardDone) { shards++ }})
	if err != nil {
		t.Fatal(err)
	}
	_, err = verify(routing.CheckpointConfig{Path: filepath.Join(dir, "run.ckpt"), ShardRows: 4, MaxShards: 1})
	if !errors.Is(err, routing.ErrPaused) {
		t.Fatalf("MaxShards run: err = %v, want ErrPaused", err)
	}
	s.Close()

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	var finals []runlog.Record
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec runlog.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if rec.Event == runlog.EventSpan || rec.Event == runlog.EventHeartbeat {
			continue
		}
		if rec.Tool != base.Tool || rec.Alg != base.Alg || rec.K != base.K || rec.Workers != base.Workers || rec.Trace != base.Trace {
			t.Fatalf("record without the caller's identity: %+v", rec)
		}
		events = append(events, rec.Event)
		if rec.Event == runlog.EventFinal {
			finals = append(finals, rec)
		}
	}
	if shards < 2 {
		t.Fatalf("OnShard ran %d times, want ≥ 2", shards)
	}
	want := []string{runlog.EventRunStart}
	for i := int64(0); i < shards; i++ {
		want = append(want, runlog.EventShardDone)
	}
	want = append(want, runlog.EventFinal, runlog.EventRunStart, runlog.EventShardDone, runlog.EventFinal)
	if strings.Join(events, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %v, want %v", events, want)
	}
	full := finals[0]
	if full.Paused || full.Paths != st.NumPaths || full.TotalHits != st.TotalHits ||
		full.MaxVertexHits != st.MaxVertexHits || full.MaxMetaHits != st.MaxMetaHits ||
		full.Bound != st.Bound || full.AdjChecked != st.AdjacencyChecked {
		t.Fatalf("final record %+v does not match stats %+v", full, st)
	}
	if !finals[1].Paused {
		t.Fatalf("MaxShards final record not marked paused: %+v", finals[1])
	}
}
