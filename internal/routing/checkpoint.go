package routing

// Crash-safe checkpointing for the full-routing verifiers. The
// pair-path enumeration space is split into deterministic fixed-size
// shards of whole rows (row = one (side, input) pair, see parallel.go),
// by sequential enumeration order, so the shard boundaries — and hence
// every per-shard contribution — are independent of the worker count.
// Workers pull shards from a queue; each completed shard's int64 hit
// vector, meta-vertex counts, and path/adjacency tallies are merged
// into a single accumulated Checkpoint, persisted with an atomic
// write-to-temp-then-rename so a crash can never leave a torn file.
// On resume, completed shards are skipped and their cached
// contributions reused; because every merged quantity is an exact
// int64 sum (or a max over exact sums), an interrupted-and-resumed run
// produces final Stats bit-identical to an uninterrupted one, at any
// worker count.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathrouting/internal/cdag"
)

// CheckpointVersion is the schema version written into checkpoint
// files; files with a different version are rejected on load.
const CheckpointVersion = 1

// defaultShardPaths sizes shards when CheckpointConfig.ShardRows is 0:
// roughly this many pair paths per shard, so checkpoint granularity
// stays useful as k grows (a shard is always a whole number of rows).
const defaultShardPaths = 1 << 20

// ErrPaused is wrapped by the error VerifyFullRoutingCheckpointed
// returns when it stops before completing every shard (MaxShards
// reached). The checkpoint file holds all completed work; rerun with
// Resume to continue.
var ErrPaused = errors.New("routing: checkpointed verification paused before completion")

// CheckpointConfig configures VerifyFullRoutingCheckpointed.
type CheckpointConfig struct {
	// Path is the checkpoint file (required). Saves write Path+".tmp"
	// and rename it over Path, so a crash mid-save is harmless.
	Path string
	// ShardRows is the number of enumeration rows per shard; 0 sizes
	// shards to ~defaultShardPaths pair paths, or — when resuming —
	// adopts the checkpoint's shard size. An explicit value must match
	// the checkpoint it resumes.
	ShardRows int64
	// FlushEvery persists the checkpoint after this many newly
	// completed shards (0 = after every shard). Larger values trade
	// re-verification work after a crash for less write amplification
	// on runs with large hit vectors.
	FlushEvery int
	// MaxShards, when positive, stops the run after completing this
	// many new shards and returns an ErrPaused-wrapped error — a
	// time-boxing knob (and the seam the interrupt/resume tests and
	// `make verify-resume` use to simulate a kill).
	MaxShards int64
	// Stop, when non-nil, makes workers stop claiming new shards once
	// it is closed: in-flight shards finish, merge, and persist, then
	// the run returns an ErrPaused-wrapped error exactly as MaxShards
	// would. This is the graceful-drain seam a daemon's SIGTERM
	// handler uses — a drained job's checkpoint resumes on restart.
	Stop <-chan struct{}
	// Resume loads an existing checkpoint at Path and skips its
	// completed shards. A missing file starts a fresh run, so retry
	// loops can pass Resume unconditionally; an incompatible file
	// (different algorithm, k, shard size, or adjacency stride) is an
	// error.
	Resume bool
	// OnShard, when non-nil, is called after each shard completes and
	// merges (serialized by the engine's lock; keep it fast).
	OnShard func(ShardDone)
}

// ShardDone is the per-shard completion notification delivered to
// CheckpointConfig.OnShard.
type ShardDone struct {
	// Shard is the completed shard's index in [0, Total), or -1 for the
	// synthetic restore notification (Restored below).
	Shard int64
	// Rows and Paths are the shard's size.
	Rows, Paths int64
	// Done is the cumulative number of completed shards (including
	// those restored from the checkpoint); Total the overall count.
	Done, Total int64
	// Restored marks the one synthetic notification a resumed run
	// delivers before re-running anything: it aggregates every shard
	// restored from the checkpoint (Shard is -1; Rows/Paths/Done cover
	// all of them), so coverage displays start from the restored state
	// instead of discovering it shard by shard — or never, when the
	// checkpoint was already complete.
	Restored bool
}

// Checkpoint is the persisted accumulated state of a checkpointed
// verification run: which shards are complete and the exact merged
// contribution of every completed shard.
type Checkpoint struct {
	Version     int
	Alg         string
	K           int
	NumVertices int
	ShardRows   int64
	NumShards   int64
	AdjStride   int64

	Done      []bool
	DoneCount int64

	NumPaths   int64
	TotalHits  int64
	AdjChecked int64
	Hits       []int64
	MetaHits   map[cdag.V]int64
}

// shardPlan is the deterministic shard geometry for one router.
type shardPlan struct {
	rows, shardRows, numShards int64
}

func (r *Router) shardPlan(shardRows int64) shardPlan {
	rows := r.numRows()
	aK := r.powA[r.k]
	if shardRows <= 0 {
		shardRows = defaultShardPaths / aK
		if shardRows < 1 {
			shardRows = 1
		}
	}
	if shardRows > rows {
		shardRows = rows
	}
	return shardPlan{rows: rows, shardRows: shardRows, numShards: (rows + shardRows - 1) / shardRows}
}

// newCheckpoint returns the empty accumulated state for a plan.
func (r *Router) newCheckpoint(plan shardPlan) *Checkpoint {
	return &Checkpoint{
		Version:     CheckpointVersion,
		Alg:         r.G.Alg.Name,
		K:           r.k,
		NumVertices: r.G.NumVertices(),
		ShardRows:   plan.shardRows,
		NumShards:   plan.numShards,
		AdjStride:   r.adjStride(),
		Done:        make([]bool, plan.numShards),
		Hits:        make([]int64, r.G.NumVertices()),
		MetaHits:    make(map[cdag.V]int64),
	}
}

// checkpointCompat rejects resuming a checkpoint whose run parameters
// differ from this router's: merged contributions would be silently
// wrong rather than loudly incompatible.
func (r *Router) checkpointCompat(c *Checkpoint, plan shardPlan) error {
	switch {
	case c.Version != CheckpointVersion:
		return fmt.Errorf("routing: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	case c.Alg != r.G.Alg.Name || c.K != r.k:
		return fmt.Errorf("routing: checkpoint is for %s G_%d, router verifies %s G_%d",
			c.Alg, c.K, r.G.Alg.Name, r.k)
	case c.NumVertices != r.G.NumVertices():
		return fmt.Errorf("routing: checkpoint has %d vertices, graph has %d", c.NumVertices, r.G.NumVertices())
	case c.ShardRows != plan.shardRows || c.NumShards != plan.numShards:
		return fmt.Errorf("routing: checkpoint shards %d×%d rows, run wants %d×%d — resume with the original shard size",
			c.NumShards, c.ShardRows, plan.numShards, plan.shardRows)
	case c.AdjStride != r.adjStride():
		return fmt.Errorf("routing: checkpoint adjacency stride %d, router uses %d", c.AdjStride, r.adjStride())
	case int64(len(c.Done)) != c.NumShards || len(c.Hits) != c.NumVertices:
		return fmt.Errorf("routing: checkpoint internally inconsistent (%d done flags, %d hit counters)",
			len(c.Done), len(c.Hits))
	}
	return nil
}

// mergeShard folds one completed shard's accumulator into the
// checkpoint. Every field is an exact int64 sum, so merge order — and
// therefore worker count and interruption pattern — cannot change the
// final state. The worker's dense meta-hit vector folds into the
// checkpoint's sparse map — the persisted form stays a map keyed by
// meta-vertex root, so files written before the dense accumulator
// still load (the gob schema is unchanged; no version bump).
func (c *Checkpoint) mergeShard(shard int64, ws *workerState) {
	c.Done[shard] = true
	c.DoneCount++
	c.NumPaths += ws.numPaths
	c.TotalHits += ws.totalHits
	c.AdjChecked += ws.adjChecked
	hitVec(c.Hits).merge(ws.hits)
	for v, h := range ws.metaHits {
		if h != 0 {
			c.MetaHits[cdag.V(v)] += h
		}
	}
}

// stats derives the Stats of the accumulated state.
func (c *Checkpoint) stats(r *Router, start time.Time) Stats {
	st := Stats{
		Bound:            6 * r.powA[r.k],
		NumPaths:         c.NumPaths,
		TotalHits:        c.TotalHits,
		AdjacencyChecked: c.AdjChecked,
		MaxVertexHits:    hitVec(c.Hits).max(),
		Ranks:            r.rankProfile(c.Hits),
	}
	for _, h := range c.MetaHits {
		if h > st.MaxMetaHits {
			st.MaxMetaHits = h
		}
	}
	st.Elapsed = time.Since(start)
	return st
}

// syncDir fsyncs the directory containing path, making a just-renamed
// entry durable. fsync on the file alone persists its *contents*; the
// rename is a mutation of the parent directory, and until that
// directory is synced a power loss can roll the rename back — leaving
// an older (or no) checkpoint at Path even though save returned
// success, so a -resume would silently restart from stale state.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// save atomically persists the checkpoint: encode to Path+".tmp", fsync,
// rename over Path, then fsync the parent directory so the rename
// itself survives power loss. The durability halves land in separate
// latency histograms when instrumented: encode+fsync scales with the
// hit-vector size, rename+dirsync with filesystem metadata latency.
func (c *Checkpoint) save(path string, in *Instruments) error {
	tmp := path + ".tmp"
	start := time.Now()
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("routing: checkpoint: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(c); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint encode: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint close: %w", err)
	}
	if in != nil {
		in.CheckpointFsync.ObserveSince(start)
	}
	renameStart := time.Now()
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint rename: %w", err)
	}
	if err := syncDir(path); err != nil {
		return fmt.Errorf("routing: checkpoint dir sync: %w", err)
	}
	if in != nil {
		in.CheckpointRename.ObserveSince(renameStart)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file (for resume and inspection).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c Checkpoint
	if err := gob.NewDecoder(f).Decode(&c); err != nil {
		return nil, fmt.Errorf("routing: checkpoint decode %s: %w", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("routing: checkpoint %s: version %d, want %d", path, c.Version, CheckpointVersion)
	}
	return &c, nil
}

// VerifyFullRoutingCheckpointed is VerifyFullRoutingParallel with
// sharded crash-safe persistence: completed shards are merged into a
// checkpoint file as the run proceeds, and a resumed run skips them,
// producing final Stats bit-identical to an uninterrupted run at any
// worker count. On a routing violation it reports exactly the error
// VerifyFullRouting reports (earliest enumeration position); the
// checkpoint keeps every *successfully* verified shard either way.
// When MaxShards stops the run early, the returned error wraps
// ErrPaused and the Stats cover the completed shards only.
func (r *Router) VerifyFullRoutingCheckpointed(workers int, cfg CheckpointConfig) (Stats, error) {
	start := time.Now()
	r.Obs.noteStart(start)
	if cfg.Path == "" {
		return Stats{}, errors.New("routing: CheckpointConfig.Path is required")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	aK := r.powA[r.k]

	var cp *Checkpoint
	shardRows := cfg.ShardRows
	if cfg.Resume {
		loaded, err := LoadCheckpoint(cfg.Path)
		switch {
		case err == nil:
			if shardRows == 0 {
				shardRows = loaded.ShardRows // adopt the checkpoint's geometry
			}
			cp = loaded
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume: fresh run.
		default:
			return Stats{}, err
		}
	}
	plan := r.shardPlan(shardRows)
	if cp == nil {
		cp = r.newCheckpoint(plan)
	} else if err := r.checkpointCompat(cp, plan); err != nil {
		return Stats{}, err
	}

	if cp.DoneCount > 0 {
		// Credit the restored shards' work to the run's counters and the
		// caller's shard callback before anything re-runs, so a resumed
		// run's paths/adjacency gauges and /healthz coverage reach 100%
		// instead of ending short by the restored fraction — including
		// the fully-restored case below, which re-runs nothing at all.
		var restoredRows int64
		for s := int64(0); s < plan.numShards; s++ {
			if cp.Done[s] {
				restoredRows += min((s+1)*plan.shardRows, plan.rows) - s*plan.shardRows
			}
		}
		r.Obs.noteRestored(cp.NumPaths, cp.AdjChecked, cp.DoneCount)
		if cfg.OnShard != nil {
			cfg.OnShard(ShardDone{Shard: -1, Restored: true, Rows: restoredRows,
				Paths: cp.NumPaths, Done: cp.DoneCount, Total: plan.numShards})
		}
	}
	pending := make([]int64, 0, plan.numShards-cp.DoneCount)
	for s := int64(0); s < plan.numShards; s++ {
		if !cp.Done[s] {
			pending = append(pending, s)
		}
	}
	if len(pending) == 0 {
		st := cp.stats(r, start)
		return st, r.checkFullRoutingBounds(st)
	}
	r.G.EnsureAdjacencyIndex() // build once, before the fan-out
	r.G.EnsureMetaRootIndex()

	flushEvery := cfg.FlushEvery
	if flushEvery <= 0 {
		flushEvery = 1
	}
	maxClaims := int64(len(pending))
	if cfg.MaxShards > 0 && cfg.MaxShards < maxClaims {
		maxClaims = cfg.MaxShards
	}
	workers = clampWorkers(workers, maxClaims)

	var (
		next        atomic.Int64
		earliestErr atomic.Int64
		mu          sync.Mutex // guards cp, sinceFlush, saveErr, firstErr
		sinceFlush  int
		saveErr     error
		firstErr    error
		firstPos    = int64(math.MaxInt64)
	)
	earliestErr.Store(math.MaxInt64)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if cfg.Stop != nil {
					select {
					case <-cfg.Stop:
						// Drain requested: finish nothing new. Shards
						// already merged are persisted by the final
						// flush below, so the run resumes from here.
						return
					default:
					}
				}
				i := next.Add(1) - 1
				if i >= maxClaims {
					return
				}
				shard := pending[i]
				rowLo := shard * plan.shardRows
				rowHi := min(rowLo+plan.shardRows, plan.rows)
				// Shards are claimed in ascending row order, so an error
				// published before this shard precedes every later one
				// too: this worker is done.
				if earliestErr.Load() < rowLo*aK {
					return
				}
				var ws workerState
				span := r.Obs.startSpan("shard_enumerate")
				span.SetAttr("shard", strconv.FormatInt(shard, 10))
				r.scanRange(w, workers, rowLo, rowHi, &earliestErr, &ws)
				span.SetAttr("paths", strconv.FormatInt(ws.numPaths, 10))
				span.End()
				mu.Lock()
				if ws.err != nil {
					// Failed shards stay pending; completed ones keep
					// checkpointing so a fixed run resumes from them.
					if ws.errPos < firstPos {
						firstPos, firstErr = ws.errPos, ws.err
					}
					mu.Unlock()
					continue
				}
				mergeSpan := r.Obs.startSpan("shard_merge")
				mergeSpan.SetAttr("shard", strconv.FormatInt(shard, 10))
				cp.mergeShard(shard, &ws)
				mergeSpan.End()
				if in := r.Obs; in != nil {
					in.ShardsDone.Inc()
				}
				if cfg.OnShard != nil {
					cfg.OnShard(ShardDone{Shard: shard, Rows: rowHi - rowLo,
						Paths: ws.numPaths, Done: cp.DoneCount, Total: plan.numShards})
				}
				sinceFlush++
				if sinceFlush >= flushEvery {
					persistSpan := r.Obs.startSpan("checkpoint_persist")
					persistSpan.SetAttr("shards_done", strconv.FormatInt(cp.DoneCount, 10))
					if err := cp.save(cfg.Path, r.Obs); err != nil && saveErr == nil {
						saveErr = err
					}
					persistSpan.End()
					sinceFlush = 0
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if sinceFlush > 0 {
		persistSpan := r.Obs.startSpan("checkpoint_persist")
		persistSpan.SetAttr("shards_done", strconv.FormatInt(cp.DoneCount, 10))
		if err := cp.save(cfg.Path, r.Obs); err != nil && saveErr == nil {
			saveErr = err
		}
		persistSpan.End()
	}
	st := cp.stats(r, start)
	switch {
	case saveErr != nil:
		// A run that cannot persist is not crash-safe: fail loudly
		// rather than report progress that would be lost.
		return st, saveErr
	case firstErr != nil:
		return st, firstErr
	case cp.DoneCount < plan.numShards:
		return st, fmt.Errorf("%w: %d/%d shards done (checkpoint %s)",
			ErrPaused, cp.DoneCount, plan.numShards, cfg.Path)
	}
	return st, r.checkFullRoutingBounds(st)
}
