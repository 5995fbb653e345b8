package routing

// The Routing Theorem verification engine: one engine for every full
// routing, in memory or persisted. The check is embarrassingly parallel
// over *rows* of the pair-path enumeration space: row s·aᵏ + in covers
// the aᵏ paths from input `in` of side s to every output, and rows
// inherit the sequential enumeration order of ForEachPairPath. Rows are
// grouped into deterministic shards (see shardPlan), and workers claim
// shards in ascending order. Each worker scans into dense int64
// accumulators it allocates once and reuses across its shards, and
// folds them into the run totals only when the run is about to persist
// (a CheckpointConfig with a Path) or when the worker exits. An
// in-memory run therefore folds once per worker. Every total is an
// exact int64 sum, so worker count, shard claiming order, and
// interruption cannot change the final Stats.
//
// Failure semantics: workers publish the sequential position of the
// first error they hit through a shared atomic minimum. A worker whose
// entire remaining scan lies after the published position stops —
// cooperative cancellation — while the worker that owns the globally
// earliest error always reaches it (nothing published can precede it,
// by minimality). A failed or cancelled shard discards the worker's
// unfolded accumulator, and the finalizer reports the error at the
// earliest position, so every worker count reports exactly the error
// VerifyFullRouting reports.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

const (
	// defaultAdjacencyStride is the default sampling rate for full
	// edge-by-edge path adjacency verification: every 257th path, the
	// seed's spot-check rate (full adjacency of every chain is covered
	// by VerifyGuaranteedRouting plus the junction structure; the
	// sample guards the composition itself).
	defaultAdjacencyStride = 257
	// progressChunk is how many paths a worker enumerates between
	// Progress snapshots (and batched metric flushes).
	progressChunk = 1 << 15
	// progressTimeFloor caps the wall time between snapshots: a worker
	// far below progressChunk paths/s (deep k, slow disk, contended
	// box) still reports at least this often.
	progressTimeFloor = time.Second
	// progressClockMask rate-limits the wall-clock reads backing the
	// time floor to every (mask+1) paths (or orbits), keeping time.Now
	// off the per-path fast path.
	progressClockMask = 1<<10 - 1
)

// VerifyFullRoutingParallel is VerifyFullRouting distributed over
// workers goroutines (0 → GOMAXPROCS): an in-memory run of the engine.
func (r *Router) VerifyFullRoutingParallel(workers int) (Stats, error) {
	return r.VerifyFullRoutingCheckpointed(workers, CheckpointConfig{})
}

// worker is one engine goroutine's private state, allocated on its
// first shard and reused across every shard it claims. The tallies are
// cumulative; the part not yet folded into the run totals is their
// distance to the fold watermarks.
type worker struct {
	r           *Router
	id, workers int

	hits, metaHits hitVec  // per vertex and per meta-vertex root
	stamp          []int64 // orbit kernel: serial of the last orbit crediting each root
	serial         int64   // runs on across shards, so stamp is never cleared
	ps             *pathScratch
	buf            []cdag.V

	numPaths, totalHits, adjChecked int64
	foldPaths, foldTotal, foldAdj   int64
	shards                          []int64 // completed shards not yet folded
	err                             error
	errPos                          int64

	// Progress and metric state: Total counts the paths of the shards
	// claimed so far, peak is the running maximum of the accumulator.
	total, peak, orbits, families int64
	observing                     bool
	nextEmit                      int64
	lastEmit                      time.Time
	flushed                       [4]int64 // paths, adjChecked, orbits, families
}

func (r *Router) newWorker(id, workers int) *worker {
	return &worker{r: r, id: id, workers: workers, errPos: math.MaxInt64,
		ps: r.newPathScratch(), buf: make([]cdag.V, 0, 3*(2*r.k+2)-2),
		observing: r.Progress != nil || r.Obs != nil, nextEmit: progressChunk, lastEmit: time.Now()}
}

// ready allocates the vectors the worker's scan state lacks: all of
// them on the first shard, fresh accumulators after a fold adopted them.
func (w *worker) ready() {
	r := w.r
	if w.hits == nil {
		w.hits = make(hitVec, r.G.NumVertices())
		w.metaHits = make(hitVec, r.G.NumVertices())
	}
	if r.OrbitReduction && w.stamp == nil {
		w.stamp = make([]int64, r.G.NumVertices())
	}
}

// fail records the worker's first error and publishes its sequential
// position so workers scanning strictly later positions can stop.
func (w *worker) fail(pos int64, err error, earliestErr *atomic.Int64) {
	w.err, w.errPos = err, pos
	for {
		cur := earliestErr.Load()
		if pos >= cur || earliestErr.CompareAndSwap(cur, pos) {
			return
		}
	}
}

// discard drops the unfolded part of the accumulator after a failed or
// cancelled shard: its shards stay pending.
func (w *worker) discard() {
	w.shards = w.shards[:0]
	w.foldPaths, w.foldTotal, w.foldAdj = w.numPaths, w.totalHits, w.adjChecked
	clear(w.hits)
	clear(w.metaHits)
	w.err, w.errPos = nil, math.MaxInt64
}

// tick is the snapshot cadence both kernels share: a snapshot every
// progressChunk paths, or once progressTimeFloor has passed when
// clockDue says a clock read is affordable.
func (w *worker) tick(clockDue bool) {
	if w.numPaths >= w.nextEmit || (clockDue && time.Since(w.lastEmit) >= progressTimeFloor) {
		w.emit(false)
	}
}

// emit flushes the metric deltas and delivers a Progress snapshot. The
// peak is recomputed from the accumulator here rather than per bump:
// hit counts only grow between folds, so the maximum is exact.
func (w *worker) emit(final bool) {
	w.peak = max(w.peak, w.hits.max())
	in := w.r.Obs
	in.flushScan(w.numPaths-w.flushed[0], w.adjChecked-w.flushed[1], w.peak)
	in.flushOrbit(w.orbits-w.flushed[2], w.families-w.flushed[3])
	w.flushed = [4]int64{w.numPaths, w.adjChecked, w.orbits, w.families}
	w.nextEmit = w.numPaths + progressChunk
	w.lastEmit = time.Now()
	if w.r.Progress != nil {
		w.r.Progress(Progress{Worker: w.id, Workers: w.workers, Done: w.numPaths,
			Total: w.total, PeakVertexHits: w.peak, Final: final})
	}
}

// numRows is the size of the row space: one row per (side, input), in
// sequential enumeration order, so the pair path at position p lives in
// row p / aᵏ.
func (r *Router) numRows() int64 { return 2 * r.powA[r.k] }

// rowOf decomposes a row index into its (side, input).
func (r *Router) rowOf(row int64) (bilinear.Side, int64) {
	if aK := r.powA[r.k]; row >= aK {
		return bilinear.SideB, row - aK
	}
	return bilinear.SideA, row
}

func (r *Router) adjStride() int64 {
	if r.AdjacencySampleStride > 0 {
		return r.AdjacencySampleStride
	}
	return defaultAdjacencyStride
}

// scanRows verifies the pair paths of rows [rowLo, rowHi): length,
// endpoints, sampled edge-by-edge adjacency, and hit accumulation per
// vertex and per meta-vertex.
//
// It is the full-enumeration oracle the orbit kernel is checked
// against. The loop is allocation-free in steady state: the worker's
// pathScratch carries the digit odometer and chain buffer, meta roots
// come from the dense precomputed table, and per-path root dedup is a
// linear scan of a fixed-size array (a path has 3(2k+2)-2 vertices, so
// at most that many distinct roots).
func (r *Router) scanRows(w *worker, rowLo, rowHi int64, earliestErr *atomic.Int64) {
	g := r.G
	aK := r.powA[r.k]
	wantLen := 3*(2*r.k+2) - 2
	stride := r.adjStride()
	ps := w.ps
	metaRoots := g.MetaRoots()
	for row := rowLo; row < rowHi; row++ {
		// Cooperative cancellation: an error published at a position
		// before everything left in this worker's scan makes the
		// rest of the scan irrelevant to the first-error selection.
		if earliestErr.Load() < row*aK {
			return
		}
		side, in := r.rowOf(row)
		ps.setIn(r, in)
		ps.setOut(r, 0)
		for outIdx := int64(0); outIdx < aK; outIdx++ {
			if outIdx != 0 {
				ps.advanceOut(r)
			}
			buf := r.appendPairPath(ps, side, in, outIdx, w.buf[:0])
			w.buf = buf
			idx := row*aK + outIdx
			w.numPaths++
			w.totalHits += int64(len(buf))
			if len(buf) != wantLen {
				w.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): length %d, want %d",
					side, in, outIdx, len(buf), wantLen), earliestErr)
				return
			}
			wantIn := g.InputA(in)
			if side == bilinear.SideB {
				wantIn = g.InputB(in)
			}
			if buf[0] != wantIn || buf[len(buf)-1] != g.Output(outIdx) {
				w.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): endpoints %s..%s",
					side, in, outIdx, g.Label(buf[0]), g.Label(buf[len(buf)-1])), earliestErr)
				return
			}
			if idx%stride == 0 {
				w.adjChecked++
				for i := 0; i+1 < len(buf); i++ {
					if !g.Adjacent(buf[i], buf[i+1]) {
						w.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): not connected at %s -- %s",
							side, in, outIdx, g.Label(buf[i]), g.Label(buf[i+1])), earliestErr)
						return
					}
				}
			}
			roots := ps.roots[:0]
			for _, v := range buf {
				w.hits[v]++
				root := metaRoots[v]
				if !slices.Contains(roots, root) {
					roots = append(roots, root)
				}
			}
			for _, root := range roots {
				w.metaHits[root]++
			}
			if w.observing {
				w.tick(w.numPaths&progressClockMask == 0)
			}
		}
	}
}

// scanRange scans one shard with the router's kernel: the orbit kernel
// or the full-enumeration oracle. The enumeration latency lands in the
// shard-enumerate histogram.
func (r *Router) scanRange(w *worker, rowLo, rowHi int64, earliestErr *atomic.Int64) {
	if in := r.Obs; in != nil {
		defer in.ShardEnumerate.ObserveSince(time.Now())
	}
	w.ready()
	if r.OrbitReduction {
		r.scanRowsOrbit2(w, rowLo, rowHi, earliestErr)
	} else {
		r.scanRows(w, rowLo, rowHi, earliestErr)
	}
}

// engine is the shared state of one full-routing verification. Its
// mutex guards the claim cursor, the run totals in cp, and the error
// and persistence state.
type engine struct {
	r           *Router
	cfg         CheckpointConfig
	plan        shardPlan
	cp          Checkpoint // the run totals
	earliestErr atomic.Int64

	mu                sync.Mutex
	next              int64 // claim cursor over shard indices
	claims, maxClaims int64
	completed         int64 // shards completed this run plus restored ones
	saveErr, firstErr error
	firstPos          int64
}

// VerifyFullRoutingCheckpointed is the verification engine behind every
// full routing. With an empty cfg.Path it runs in memory; with a Path,
// completed shards are folded into a checkpoint file as the run
// proceeds, and a resumed run skips them, producing final Stats
// bit-identical to an uninterrupted run at any worker count. On a
// routing violation it reports exactly the error VerifyFullRouting
// reports (earliest enumeration position); the checkpoint keeps every
// *successfully* verified and folded shard either way. When MaxShards
// or Stop ends the run early, the returned error wraps ErrPaused.
// Whenever an error is returned, the Stats cover the folded shards
// only: a failed or cancelled shard is never folded, nor are the
// unfolded shards of the worker that scanned it.
func (r *Router) VerifyFullRoutingCheckpointed(workers int, cfg CheckpointConfig) (Stats, error) {
	start := time.Now()
	r.Obs.noteStart(start)
	if cfg.Path == "" && (cfg.Resume || cfg.MaxShards > 0) {
		return Stats{}, errors.New("routing: CheckpointConfig.Resume and MaxShards need a Path")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var loaded *Checkpoint
	shardRows := cfg.ShardRows
	if cfg.Resume {
		var err error
		loaded, err = LoadCheckpoint(cfg.Path)
		switch {
		case err == nil:
			if shardRows == 0 {
				shardRows = loaded.ShardRows // adopt the checkpoint's geometry
			}
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume: fresh run.
		default:
			return Stats{}, err
		}
	}
	plan := r.shardPlan(shardRows, workers)
	e := &engine{r: r, cfg: cfg, plan: plan, cp: r.newCheckpoint(plan), firstPos: math.MaxInt64}
	if loaded != nil {
		if err := r.checkpointCompat(loaded, plan); err != nil {
			return Stats{}, err
		}
		e.cp, e.completed = *loaded, loaded.DoneCount
	}
	cp := &e.cp
	e.earliestErr.Store(math.MaxInt64)
	if cp.DoneCount > 0 {
		// Credit the restored shards to the run's counters and the
		// caller's shard callback before anything re-runs, so a resumed
		// run's paths/adjacency gauges and /healthz coverage reach 100%
		// — also when the checkpoint is complete and nothing re-runs.
		// Only complete shards are folded, so each restored row holds
		// exactly aᵏ of the restored paths.
		r.Obs.noteRestored(cp.NumPaths, cp.AdjChecked, cp.DoneCount)
		if cfg.OnShard != nil {
			cfg.OnShard(ShardDone{Shard: -1, Restored: true, Rows: cp.NumPaths / r.powA[r.k],
				Paths: cp.NumPaths, Done: cp.DoneCount, Total: plan.numShards})
		}
	}
	e.maxClaims = plan.numShards - cp.DoneCount
	if cfg.MaxShards > 0 {
		e.maxClaims = min(e.maxClaims, cfg.MaxShards)
	}
	if e.maxClaims == 0 {
		return e.finish(start)
	}
	r.G.EnsureAdjacencyIndex() // build once, before the fan-out
	r.G.EnsureMetaRootIndex()
	if int64(workers) > e.maxClaims { // narrow only below an int-sized count: exact on 32-bit
		workers = int(e.maxClaims)
	}
	if workers == 1 {
		e.work(r.newWorker(0, 1))
	} else {
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				e.work(w)
			}(r.newWorker(id, workers))
		}
		wg.Wait()
	}
	return e.finish(start)
}

// work is one worker's life: claim, scan, and complete shards until
// none is left (or the run stops), then emit the worker's one Final
// snapshot and fold what it holds. The scan runs under a pprof worker
// label so CPU profiles attribute samples per worker (`go tool pprof
// -tagfocus worker=3`).
func (e *engine) work(w *worker) {
	aK := e.r.powA[e.r.k]
	pprof.Do(context.Background(), pprof.Labels("worker", strconv.Itoa(w.id)), func(context.Context) {
		for {
			shard, ok := e.claim()
			if !ok {
				return
			}
			rowLo := shard * e.plan.shardRows
			rowHi := min(rowLo+e.plan.shardRows, e.plan.rows)
			w.total += (rowHi - rowLo) * aK
			before := w.numPaths
			span := e.r.Obs.startSpan("shard_enumerate")
			span.SetAttr("shard", strconv.FormatInt(shard, 10))
			e.r.scanRange(w, rowLo, rowHi, &e.earliestErr)
			span.SetAttr("paths", strconv.FormatInt(w.numPaths-before, 10))
			span.End()
			e.complete(w, shard, rowHi-rowLo, w.numPaths-before)
		}
	})
	if w.observing {
		w.emit(true)
	}
	e.mu.Lock()
	e.fold(w)
	e.mu.Unlock()
}

// claim hands out the next pending shard in ascending order, or reports
// that the worker should exit: nothing is left, the shard budget is
// spent, Stop is closed, or a published error precedes every unclaimed
// shard.
func (e *engine) claim() (int64, bool) {
	select {
	case <-e.cfg.Stop: // a nil Stop never fires
		// Drain requested: finish nothing new. Every completed shard
		// of a persisted run is already saved, so the run resumes
		// from here.
		return 0, false
	default:
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.next < e.plan.numShards && e.cp.Done[e.next] {
		e.next++
	}
	if e.next >= e.plan.numShards || e.claims >= e.maxClaims ||
		e.earliestErr.Load() < e.next*e.plan.shardRows*e.r.powA[e.r.k] {
		return 0, false
	}
	e.claims++
	e.next++
	return e.next - 1, true
}

// complete books a scanned shard. A failed or cancelled shard (fewer
// paths than its rows hold) discards the worker's unfolded accumulator;
// a completed one joins it, is reported to OnShard, and in a persisted
// run is then folded and saved right away.
func (e *engine) complete(w *worker, shard, rows, paths int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w.err != nil || paths != rows*e.r.powA[e.r.k] {
		if w.err != nil && w.errPos < e.firstPos {
			e.firstPos, e.firstErr = w.errPos, w.err
		}
		w.discard()
		return
	}
	w.shards = append(w.shards, shard)
	e.completed++
	if in := e.r.Obs; in != nil {
		in.ShardsDone.Inc()
	}
	if e.cfg.OnShard != nil {
		e.cfg.OnShard(ShardDone{Shard: shard, Rows: rows, Paths: paths,
			Done: e.completed, Total: e.plan.numShards})
	}
	if e.cfg.Path != "" {
		if w.observing {
			w.peak = max(w.peak, w.hits.max())
		}
		e.fold(w)
		clear(w.hits)
		clear(w.metaHits)
		span := e.r.Obs.startSpan("checkpoint_persist")
		span.SetAttr("shards_done", strconv.FormatInt(e.cp.DoneCount, 10))
		if err := e.cp.save(e.cfg.Path, e.r.Obs); err != nil && e.saveErr == nil {
			e.saveErr = err // the first save error sticks
		}
		span.End()
	}
}

// fold adds the worker's unfolded shards into the run totals. The run's
// first fold adopts the worker's vectors instead of adding them (the
// worker allocates fresh ones if it scans again), so an in-memory run
// adds one accumulator per worker after the first.
func (e *engine) fold(w *worker) {
	if len(w.shards) == 0 {
		return
	}
	span := e.r.Obs.startSpan("shard_merge")
	span.SetAttr("shards", strconv.Itoa(len(w.shards)))
	c := &e.cp
	for _, s := range w.shards {
		c.Done[s] = true
	}
	c.DoneCount += int64(len(w.shards))
	c.NumPaths += w.numPaths - w.foldPaths
	c.TotalHits += w.totalHits - w.foldTotal
	c.AdjChecked += w.adjChecked - w.foldAdj
	w.foldPaths, w.foldTotal, w.foldAdj = w.numPaths, w.totalHits, w.adjChecked
	w.shards = w.shards[:0]
	if c.Hits == nil {
		c.Hits, c.Meta = w.hits, w.metaHits
		w.hits, w.metaHits = nil, nil
	} else {
		hitVec(c.Hits).merge(w.hits)
		hitVec(c.Meta).merge(w.metaHits)
	}
	span.End()
}

// finish derives the Stats of the run totals and the run's verdict:
// a persistence failure, the earliest routing error, a pause, or the
// 6aᵏ bounds and rank invariants of a complete run.
func (e *engine) finish(start time.Time) (Stats, error) {
	st := e.cp.stats(e.r, start)
	switch {
	case e.saveErr != nil:
		// A run that cannot persist is not crash-safe: fail loudly
		// rather than report progress that would be lost.
		return st, e.saveErr
	case e.firstErr != nil:
		return st, e.firstErr
	case e.cp.DoneCount < e.plan.numShards:
		return st, fmt.Errorf("%w: %d/%d shards done (checkpoint %s)",
			ErrPaused, e.cp.DoneCount, e.plan.numShards, cmp.Or(e.cfg.Path, "none, in memory"))
	}
	return st, e.r.checkFullRoutingBounds(st)
}

// checkFullRoutingBounds verifies the Routing Theorem's 6aᵏ bounds on
// fully merged stats, then the whole-run rank invariants of the Lemma
// 4 composition.
//
// Every path is c1, reversed c2 minus its output junction, and c3
// minus its input junction, and each chain has one vertex per global
// rank 0..2k+1. So c1 covers every rank, c2 ranks 0..2k, and c3 ranks
// 1..2k+1: each path puts exactly 2 hits on ranks 0 and 2k+1 and 3 on
// every other rank. The rank totals must also sum to TotalHits, and
// the largest rank maximum must be MaxVertexHits. These checks hold
// at any k, past the reach of the full-enumeration oracle.
func (r *Router) checkFullRoutingBounds(st Stats) error {
	name := r.G.Alg.Name
	if st.MaxVertexHits > st.Bound {
		return fmt.Errorf("routing: %s G_%d: Routing Theorem violated: vertex hit %d > 6aᵏ = %d",
			name, r.k, st.MaxVertexHits, st.Bound)
	}
	if st.MaxMetaHits > st.Bound {
		return fmt.Errorf("routing: %s G_%d: Routing Theorem violated: meta-vertex hit %d > 6aᵏ = %d",
			name, r.k, st.MaxMetaHits, st.Bound)
	}
	var sum, peak int64
	for rank, rl := range st.Ranks {
		want := 3 * st.NumPaths
		if rank == 0 || rank == 2*r.k+1 {
			want = 2 * st.NumPaths
		}
		if rl.Total != want {
			return fmt.Errorf("routing: %s G_%d: rank invariant violated: rank %d total %d, want %d",
				name, r.k, rank, rl.Total, want)
		}
		sum += rl.Total
		peak = max(peak, rl.Max)
	}
	if sum != st.TotalHits || peak != st.MaxVertexHits {
		return fmt.Errorf("routing: %s G_%d: rank invariant violated: rank totals sum to %d (TotalHits %d), max %d (MaxVertexHits %d)",
			name, r.k, sum, st.TotalHits, peak, st.MaxVertexHits)
	}
	return nil
}
