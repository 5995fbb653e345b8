// Command routecheck constructs the paper's routings on G_k of a
// catalog algorithm and verifies every claimed hit-count bound. For
// the full routing it also prints the per-rank vertex-hit profile
// (largest and total hits at each global rank), taken from the
// verifier's merged hit counts.
//
// Usage:
//
//	routecheck [-alg strassen] [-k 3] [-which full|chains|decoding]
//	           [-workers 0] [-orbits=true] [-progress] [-adjstride 0]
//	           [-checkpoint run.ckpt] [-resume] [-shardrows 0] [-maxshards 0]
//	           [-journal run.jsonl] [-debugaddr :8080] [-debughold 0]
//	           [-heartbeat 30s]
//	           [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// The full routing runs on the orbit kernel by default; -orbits=false
// runs the full enumeration instead, the independent oracle whose
// stats the kernel must reproduce bit for bit.
//
// The full routing always runs on the sharded engine and prints the
// same lines with or without -checkpoint. With -checkpoint, it
// persists completed shards to the given file; a killed run restarted
// with -resume skips them and reports final stats bit-identical to an
// uninterrupted run. -maxshards stops after N new shards (exit code 3)
// to time-box long runs.
// -journal appends structured JSONL records (see internal/runlog),
// which cmd/routelog reads.
//
// With -debugaddr, a debug HTTP server exposes Prometheus-format
// /metrics, a JSON /healthz (latest per-worker progress and checkpoint
// shard coverage), and /debug/pprof; the bound address is printed to
// stderr. -debughold keeps the server up after the run so one-shot
// runs can still be scraped. With -journal, -heartbeat emits a
// heartbeat record carrying the metrics snapshot — and, since schema
// 4, a compact resource snapshot (heap, goroutines, GC pauses, CPU) —
// at that interval. The runtime self-telemetry families (proc_*) are
// read fresh on every /metrics scrape and heartbeat.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole
// run (flushed on every exit path, including verification failure and
// the -maxshards pause). Verifier workers run under pprof labels
// (worker=N), so `go tool pprof -tagfocus` attributes samples per
// worker.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/cli"
	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
)

var (
	algName    = flag.String("alg", "strassen", "algorithm name from the catalog")
	k          = flag.Int("k", 3, "recursion depth of G_k")
	which      = flag.String("which", "full", "routing: full (Theorem 2), chains (Lemma 3), decoding (Claim 1)")
	workers    = flag.Int("workers", 0, "worker goroutines for the full routing (0 = GOMAXPROCS)")
	progress   = flag.Bool("progress", false, "print per-worker progress while the full routing verifies")
	adjStride  = flag.Int64("adjstride", 0, "verify every Nth path edge-by-edge (0 = default 257, 1 = every path)")
	orbits     = flag.Bool("orbits", true, "full routing: collapse pair-path orbits (bit-identical stats, ~n₀ᵏ-fold less chain work; -orbits=false runs the full-enumeration oracle)")
	checkpoint = flag.String("checkpoint", "", "persist completed shards of the full routing to this file")
	resume     = flag.Bool("resume", false, "with -checkpoint: skip shards already completed in the checkpoint file")
	shardRows  = flag.Int64("shardrows", 0, "enumeration rows per shard of the full routing (0 = ~1M paths per shard, at least one shard per worker)")
	maxShards  = flag.Int64("maxshards", 0, "with -checkpoint: stop after N new shards, exit 3 (0 = run to completion)")
	debugHold  = flag.Duration("debughold", 0, "with -debugaddr: keep the debug server up this long after the run")
	obsFlags   = cli.RegisterFlags()
)

// session is the run's observability state (nil until main starts
// it).
var session *cli.Session

// health aggregates the live run state served by /healthz.
var health = &healthState{workers: map[int]routing.Progress{}}

type healthState struct {
	mu      sync.Mutex
	workers map[int]routing.Progress
	shards  *routing.ShardDone
}

func (h *healthState) onProgress(p routing.Progress) {
	h.mu.Lock()
	h.workers[p.Worker] = p
	h.mu.Unlock()
}

func (h *healthState) onShard(d routing.ShardDone) {
	h.mu.Lock()
	h.shards = &d
	h.mu.Unlock()
}

// snapshot renders the current run state as the /healthz document.
func (h *healthState) snapshot() any {
	type workerDoc struct {
		Worker  int   `json:"worker"`
		Workers int   `json:"workers"`
		Done    int64 `json:"done_paths"`
		Total   int64 `json:"total_paths"`
		Peak    int64 `json:"peak_vertex_hits"`
		Final   bool  `json:"final"`
	}
	type shardDoc struct {
		Done  int64 `json:"done"`
		Total int64 `json:"total"`
		Last  int64 `json:"last_shard"`
	}
	doc := struct {
		Status  string       `json:"status"`
		Alg     string       `json:"alg"`
		K       int          `json:"k"`
		Which   string       `json:"which"`
		Process obs.ProcInfo `json:"process"`
		Workers []workerDoc  `json:"progress,omitempty"`
		Shards  *shardDoc    `json:"checkpoint_shards,omitempty"`
	}{Status: "ok", Alg: *algName, K: *k, Which: *which, Process: obs.ProcessInfo()}
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]int, 0, len(h.workers))
	for w := range h.workers {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	for _, w := range ids {
		p := h.workers[w]
		doc.Workers = append(doc.Workers, workerDoc{Worker: p.Worker, Workers: p.Workers,
			Done: p.Done, Total: p.Total, Peak: p.PeakVertexHits, Final: p.Final})
	}
	if h.shards != nil {
		doc.Shards = &shardDoc{Done: h.shards.Done, Total: h.shards.Total, Last: h.shards.Shard}
	}
	return doc
}

// chainProgress fans one Progress callback out to several consumers
// (stderr printer, /healthz state); nil entries are dropped and an
// all-nil chain collapses to nil so the hot path skips emission.
func chainProgress(cbs ...func(routing.Progress)) func(routing.Progress) {
	live := cbs[:0]
	for _, cb := range cbs {
		if cb != nil {
			live = append(live, cb)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(p routing.Progress) {
		for _, cb := range live {
			cb(p)
		}
	}
}

// exitPaused signals an intentionally incomplete checkpointed run,
// distinguishable from verification failure (1) in scripts.
const exitPaused = 3

func fail(err error) { session.Fail(err) }

func main() {
	flag.Parse()
	alg, err := bilinear.ByName(*algName)
	if err != nil {
		fail(err)
	}
	// Every run gets a trace ID so its journal records — spans,
	// heartbeats, shard completions — group under one identity for
	// routelog, same as routed's service jobs.
	base := runlog.Record{Tool: "routecheck", Alg: alg.Name, K: *k, Workers: *workers,
		Trace: obs.NewTraceID()}
	obsFlags.DebugHold = *debugHold
	if session, err = cli.Start(obsFlags, base, health.snapshot); err != nil {
		fail(err)
	}
	defer session.Close()
	g, err := cdag.New(alg, *k)
	if err != nil {
		fail(err)
	}

	var st routing.Stats
	switch *which {
	case "full":
		r, err := routing.NewRouter(g)
		if err != nil {
			fail(err)
		}
		r.AdjacencySampleStride = *adjStride
		r.OrbitReduction = *orbits
		var printer func(routing.Progress)
		if *progress {
			printer = progressPrinter()
		}
		r.Progress = chainProgress(printer, health.onProgress)
		st, err = session.VerifyFullRouting(r, base, *workers, routing.CheckpointConfig{
			Path:      *checkpoint,
			ShardRows: *shardRows,
			MaxShards: *maxShards,
			Resume:    *resume,
			OnShard: func(d routing.ShardDone) {
				health.onShard(d)
				if *progress {
					fmt.Fprintf(os.Stderr, "shard %d done (%d paths), %d/%d complete\n",
						d.Shard, d.Paths, d.Done, d.Total)
				}
			},
		})
		switch {
		case errors.Is(err, routing.ErrPaused):
			fmt.Printf("PAUSED: %v\n", err)
			fmt.Printf("rerun with -resume to continue; partial stats: %s\n", st)
			session.Exit(exitPaused)
		case err != nil:
			fail(err)
		}
		if err := r.VerifyChainUsage(); err != nil {
			fail(err)
		}
		fmt.Println("Lemma 4 chain-usage counts verified exact.")
		printRanks(st.Ranks)
	case "chains":
		r, err := routing.NewRouter(g)
		if err != nil {
			fail(err)
		}
		st, err = r.VerifyGuaranteedRouting()
		if err != nil {
			fail(err)
		}
	case "decoding":
		dr, err := routing.NewDecodingRouter(g)
		if err != nil {
			fail(err)
		}
		st, err = dr.VerifyClaim1()
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown routing %q", *which))
	}
	fmt.Printf("%s G_%d %s routing: %s\n", alg.Name, *k, *which, st)
	// Everything in Stats except wall time, so interrupted+resumed and
	// uninterrupted runs compare byte for byte (make verify-resume).
	fmt.Println("stats:", st.Certificate())
	fmt.Printf("VERIFIED: max vertex hits %d ≤ bound %d; max meta-vertex hits %d ≤ bound %d\n",
		st.MaxVertexHits, st.Bound, st.MaxMetaHits, st.Bound)
	if st.AdjacencyChecked > 0 {
		fmt.Printf("adjacency verified edge-by-edge on %d paths\n", st.AdjacencyChecked)
	}
}

// progressPrinter returns a concurrency-safe routing.Progress callback
// printing one line per snapshot to stderr.
func progressPrinter() func(routing.Progress) {
	var mu sync.Mutex
	return func(p routing.Progress) {
		mu.Lock()
		defer mu.Unlock()
		state := "…"
		if p.Final {
			state = "done"
		}
		fmt.Fprintf(os.Stderr, "worker %d/%d: %d/%d paths, peak vertex hits %d %s\n",
			p.Worker+1, p.Workers, p.Done, p.Total, p.PeakVertexHits, state)
	}
}

// printRanks prints the full routing's per-rank vertex-hit profile:
// the largest hit count of any vertex at each global rank, and the
// rank's total.
func printRanks(ranks []routing.RankLoad) {
	fmt.Printf("%-6s %-10s %-12s\n", "rank", "maxHits", "totalHits")
	for rk, rl := range ranks {
		fmt.Printf("%-6d %-10d %-12d\n", rk, rl.Max, rl.Total)
	}
}
