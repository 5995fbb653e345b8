package routing

// Checkpoint format and persistence for the verification engine
// (parallel.go). The pair-path enumeration space is split into
// deterministic shards of whole rows (row = one (side, input) pair), by
// sequential enumeration order. A run with a CheckpointConfig.Path
// persists its accumulated totals — which shards are done, the dense
// per-vertex and per-meta-vertex hit vectors, and the path/adjacency
// tallies — with an atomic write-to-temp-then-rename, so a crash can
// never leave a torn file. On resume, completed shards are skipped and
// their totals reused; because every total is an exact int64 sum, an
// interrupted-and-resumed run produces final Stats bit-identical to an
// uninterrupted one, at any worker count. Version-1 files, which stored
// meta-vertex hits as a sparse map, still load.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathrouting/internal/cdag"
)

// CheckpointVersion is the schema version written into checkpoint
// files. Version 2 stores meta-vertex hits densely; version-1 files
// (a sparse map) are converted on load, and any other version is
// rejected.
const CheckpointVersion = 2

// defaultShardPaths caps shards when CheckpointConfig.ShardRows is 0:
// roughly this many pair paths per shard, so checkpoint granularity
// stays useful as k grows (a shard is always a whole number of rows).
const defaultShardPaths = 1 << 20

// ErrPaused is wrapped by the error VerifyFullRoutingCheckpointed
// returns when it stops before completing every shard (MaxShards
// reached, or Stop closed). The checkpoint file holds all folded work;
// rerun with Resume to continue.
var ErrPaused = errors.New("routing: checkpointed verification paused before completion")

// CheckpointConfig configures VerifyFullRoutingCheckpointed. The zero
// value is an in-memory run.
type CheckpointConfig struct {
	// Path is the checkpoint file; empty runs in memory. Saves write
	// Path+".tmp" and rename it over Path, so a crash mid-save is
	// harmless.
	Path string
	// ShardRows is the number of enumeration rows per shard; 0 sizes
	// shards to ~defaultShardPaths pair paths but at least one shard per
	// worker, or — when resuming — adopts the checkpoint's shard size.
	// An explicit value must match the checkpoint it resumes.
	ShardRows int64
	// MaxShards, when positive, stops the run after completing this
	// many new shards and returns an ErrPaused-wrapped error — a
	// time-boxing knob (and the seam the interrupt/resume tests and
	// `make verify-resume` use to simulate a kill). Requires a Path.
	MaxShards int64
	// Stop, when non-nil, makes workers stop claiming new shards once
	// it is closed: in-flight shards finish, fold, and persist, then
	// the run returns an ErrPaused-wrapped error exactly as MaxShards
	// would. This is the graceful-drain seam a daemon's SIGTERM
	// handler uses — a drained job's checkpoint resumes on restart.
	Stop <-chan struct{}
	// Resume loads an existing checkpoint at Path and skips its
	// completed shards. A missing file starts a fresh run, so retry
	// loops can pass Resume unconditionally; an incompatible file
	// (different algorithm, k, shard size, or adjacency stride) is an
	// error. Requires a Path.
	Resume bool
	// OnShard, when non-nil, is called after each shard completes and
	// before a persisted run saves it (serialized by the engine's lock;
	// keep it fast).
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

// Checkpoint is the accumulated state of a verification run, persisted
// when the run has a Path: which shards are complete and the exact
// folded contribution of every completed shard.
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
	Meta       []int64 // per meta-vertex root, dense like Hits
}

// shardPlan is the deterministic shard geometry for one router.
type shardPlan struct {
	rows, shardRows, numShards int64
}

// shardPlan sizes shards: shardRows rows each, or by default about
// defaultShardPaths paths but no more than rows/workers rows, so a run
// has at least min(rows, workers) shards.
func (r *Router) shardPlan(shardRows int64, workers int) shardPlan {
	rows := r.numRows()
	if shardRows <= 0 {
		shardRows = max(1, min(defaultShardPaths/r.powA[r.k], rows/int64(workers)))
	}
	shardRows = min(shardRows, rows)
	return shardPlan{rows: rows, shardRows: shardRows, numShards: (rows + shardRows - 1) / shardRows}
}

// newCheckpoint returns the empty accumulated state for a plan. Its hit
// vectors stay nil until the run's first fold adopts a worker's.
func (r *Router) newCheckpoint(plan shardPlan) Checkpoint {
	return Checkpoint{
		Version:     CheckpointVersion,
		Alg:         r.G.Alg.Name,
		K:           r.k,
		NumVertices: r.G.NumVertices(),
		ShardRows:   plan.shardRows,
		NumShards:   plan.numShards,
		AdjStride:   r.adjStride(),
		Done:        make([]bool, plan.numShards),
	}
}

// checkpointCompat rejects resuming a checkpoint whose run parameters
// differ from this router's: merged contributions would be silently
// wrong rather than loudly incompatible.
func (r *Router) checkpointCompat(c *Checkpoint, plan shardPlan) error {
	switch {
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
	}
	return nil
}

// stats derives the Stats of the accumulated state (no maxima or rank
// profile before the first fold).
func (c *Checkpoint) stats(r *Router, start time.Time) Stats {
	st := Stats{
		Bound:            6 * r.powA[r.k],
		NumPaths:         c.NumPaths,
		TotalHits:        c.TotalHits,
		AdjacencyChecked: c.AdjChecked,
	}
	if c.Hits != nil {
		st.MaxVertexHits = hitVec(c.Hits).max()
		st.MaxMetaHits = hitVec(c.Meta).max()
		st.Ranks = r.rankProfile(c.Hits)
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
// It rejects a file whose fields disagree with each other, so the
// engine never indexes past what the file holds, and converts a
// version-1 file's sparse meta hits to the dense form.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
		return nil, fmt.Errorf("routing: checkpoint decode %s: %w", path, err)
	}
	if err := c.upgrade(raw); err != nil {
		return nil, fmt.Errorf("routing: checkpoint %s: %w", path, err)
	}
	return &c, nil
}

// upgrade checks a decoded checkpoint's internal consistency and brings
// a version-1 file (raw) to the current form.
func (c *Checkpoint) upgrade(raw []byte) error {
	if c.Version != 1 && c.Version != CheckpointVersion {
		return fmt.Errorf("version %d, want %d (or 1)", c.Version, CheckpointVersion)
	}
	var done int64
	for _, d := range c.Done {
		if d {
			done++
		}
	}
	if int64(len(c.Done)) != c.NumShards || done != c.DoneCount || len(c.Hits) != c.NumVertices {
		return fmt.Errorf("internally inconsistent (%d shards, %d done flags, %d set, done count %d, %d vertices, %d hit counters)",
			c.NumShards, len(c.Done), done, c.DoneCount, c.NumVertices, len(c.Hits))
	}
	if c.Version == 1 {
		// Version 1 stored meta hits as a sparse map. gob sizes a map from
		// the entry count the file claims, before reading any entry, so
		// the map is decoded only now: the first pass skipped it entry by
		// entry, which proves the file holds every entry it claims.
		var v1 struct{ MetaHits map[cdag.V]int64 }
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v1); err != nil {
			return err
		}
		c.Meta = make([]int64, c.NumVertices)
		for v, h := range v1.MetaHits {
			if v < 0 || int(v) >= c.NumVertices {
				return fmt.Errorf("meta-vertex %d out of range [0, %d)", v, c.NumVertices)
			}
			c.Meta[v] = h
		}
		c.Version = CheckpointVersion
	}
	if len(c.Meta) != c.NumVertices {
		return fmt.Errorf("%d meta-hit counters, want %d", len(c.Meta), c.NumVertices)
	}
	return nil
}
