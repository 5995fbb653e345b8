package routing

// Tests for the hardened verification path: int64 hit counters, the
// parallel/sequential equivalence contract, deterministic first-error
// selection, cooperative cancellation, and progress reporting.

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// TestHitCountersSurviveInt32Overflow is the regression test for the
// int32 hit arrays the verifiers used to carry: counters crossing 2³¹
// must keep counting instead of wrapping negative. Real accumulation of
// 2³¹ hits is too slow for a test, so it drives the hitVec seam the
// verifiers now share.
func TestHitCountersSurviveInt32Overflow(t *testing.T) {
	h := make(hitVec, 4)
	h[1] = math.MaxInt32 - 1
	var peak int64
	for i := 0; i < 3; i++ {
		h[1]++
		peak = max(peak, h[1])
	}
	want := int64(math.MaxInt32) + 2
	if peak != want || h.max() != want {
		t.Fatalf("peak = %d, max = %d, want %d", peak, h.max(), want)
	}
	if h.max() <= math.MaxInt32 {
		t.Fatalf("counter failed to pass the int32 range")
	}
	// The seed's representation would have wrapped negative here and
	// reported a tiny "maximum", silently certifying a violated bound.
	if wrapped := int32(h[1]); wrapped >= 0 {
		t.Fatalf("test is vacuous: int32 image %d did not wrap", wrapped)
	}
	// merge must stay in int64 too.
	g := make(hitVec, 4)
	g[1] = math.MaxInt32
	g.merge(h)
	if g.max() != want+math.MaxInt32 {
		t.Fatalf("merge lost width: %d", g.max())
	}
}

// pairIndex is the position of (side, in, out) in sequential
// enumeration order (ForEachPairPath): side-major, then input, then
// output. With aK < 2³¹ (guaranteed by the int32 vertex-ID limit) the
// product fits int64.
func (r *Router) pairIndex(side bilinear.Side, in, out int64) int64 {
	s := int64(0)
	if side == bilinear.SideB {
		s = 1
	}
	aK := r.powA[r.k]
	return (s*aK+in)*aK + out
}

// sameStats is the bit-identical equivalence gate: every Stats field —
// counts, maxima, and the per-rank profile — must agree; only the wall
// time Elapsed, which is observability, is ignored.
func sameStats(a, b Stats) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return reflect.DeepEqual(a, b)
}

// equivalenceWorkers is the worker-count table of the parallel ==
// sequential contract: one, even, odd-and-awkward, and whatever the
// machine has.
func equivalenceWorkers() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestParallelStatsBitIdentical verifies that VerifyFullRoutingParallel
// returns *bit-identical* Stats to VerifyFullRouting — not merely the
// same bounds — for every worker count in the table, on a healthy
// algorithm and on a catalog algorithm with a disconnected base
// decoding graph.
func TestParallelStatsBitIdentical(t *testing.T) {
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 3},
		{bilinear.DisconnectedFast(), 2},
	} {
		r := mustRouter(t, c.alg, c.k)
		seq, err := r.VerifyFullRouting()
		if err != nil {
			t.Fatalf("%s k=%d: %v", c.alg.Name, c.k, err)
		}
		for _, w := range equivalenceWorkers() {
			par, err := r.VerifyFullRoutingParallel(w)
			if err != nil {
				t.Fatalf("%s k=%d workers=%d: %v", c.alg.Name, c.k, w, err)
			}
			if !sameStats(par, seq) {
				t.Fatalf("%s k=%d workers=%d:\nparallel   %+v\nsequential %+v",
					c.alg.Name, c.k, w, par, seq)
			}
		}
	}
}

// TestRankProfileMatchesPathHistogram pins Stats.Ranks, folded from
// the merged hit vector, against a histogram bucketed path by path
// through cdag's GlobalRank, for both scan modes; and checks the
// closed form the rank invariant relies on (2 hits per path on the
// input and output ranks, 3 on every other).
func TestRankProfileMatchesPathHistogram(t *testing.T) {
	for _, alg := range []*bilinear.Algorithm{bilinear.Strassen(), bilinear.Winograd()} {
		r := mustRouter(t, alg, 2)
		want := make([]RankLoad, 2*r.k+2)
		hits := make([]int64, r.G.NumVertices())
		r.ForEachPairPath(func(_ bilinear.Side, _, _ int64, path []cdag.V) {
			for _, v := range path {
				hits[v]++
			}
		})
		for v, h := range hits {
			rl := &want[r.G.GlobalRank(cdag.V(v))]
			rl.Total += h
			rl.Max = max(rl.Max, h)
		}
		paths := 2 * r.powA[r.k] * r.powA[r.k]
		for rank, rl := range want {
			perPath := int64(3)
			if rank == 0 || rank == 2*r.k+1 {
				perPath = 2
			}
			if rl.Total != perPath*paths {
				t.Fatalf("%s rank %d: total %d, want %d·%d", alg.Name, rank, rl.Total, perPath, paths)
			}
		}
		for _, orbits := range []bool{false, true} {
			r.OrbitReduction = orbits
			st, err := r.VerifyFullRoutingParallel(2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Ranks, want) {
				t.Fatalf("%s orbits=%v: rank profile %v, path histogram %v", alg.Name, orbits, st.Ranks, want)
			}
		}
	}
}

// corruptRouter builds a Router over a corrupted Strassen matching with
// full (stride 1) adjacency checking, so the corruption is caught on
// the first path that uses the rerouted dependency.
func corruptRouter(t *testing.T, k int) *Router {
	t.Helper()
	alg, bm := corruptMatching(t)
	g, err := cdag.New(alg, k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouterWithMatching(g, bm)
	if err != nil {
		t.Fatal(err)
	}
	r.AdjacencySampleStride = 1
	return r
}

// TestParallelReportsSequentialError pins the deterministic failure
// contract: for a corrupted routing, every worker count must report
// exactly the error the sequential verifier reports — the one at the
// earliest position in enumeration order — not whichever worker
// happened to fail first.
func TestParallelReportsSequentialError(t *testing.T) {
	r := corruptRouter(t, 3)
	_, seqErr := r.VerifyFullRouting()
	if seqErr == nil {
		t.Fatal("sequential verifier accepted a corrupted matching")
	}
	for _, w := range equivalenceWorkers() {
		for trial := 0; trial < 3; trial++ { // scheduling is nondeterministic; the error must not be
			_, parErr := r.VerifyFullRoutingParallel(w)
			if parErr == nil {
				t.Fatalf("workers=%d: corrupted matching accepted", w)
			}
			if parErr.Error() != seqErr.Error() {
				t.Fatalf("workers=%d trial %d:\nparallel   %v\nsequential %v",
					w, trial, parErr, seqErr)
			}
		}
	}
}

// TestWorkerCancelsOnPublishedError drives scanRows directly against a
// pre-published error position and checks the cancellation contract at
// both granularities: an error before the worker's row range stops it
// before any work, and an error inside the range stops it at the next
// row boundary — while an error after the range does not stop it at
// all (it might still own an earlier failure).
func TestWorkerCancelsOnPublishedError(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2) // aK = 16, 32 rows
	aK := r.powA[r.k]

	run := func(published int64, rowLo, rowHi int64) *worker {
		var earliest atomic.Int64
		earliest.Store(published)
		w := r.newWorker(1, 2)
		w.ready()
		r.scanRows(w, rowLo, rowHi, &earliest)
		return w
	}

	if got := run(0, 5, 10); got.numPaths != 0 {
		t.Errorf("error before range: worker enumerated %d paths, want 0", got.numPaths)
	}
	// Error inside the range, at row 7 (side A, input 7): the worker
	// checks cancellation once per row, so it finishes rows 5..7 (the
	// row owning the error position must still be scanned — this worker
	// might find an even earlier failure inside it).
	if got := run(r.pairIndex(bilinear.SideA, 7, 3), 5, 10); got.numPaths != 3*aK {
		t.Errorf("error inside range: worker enumerated %d paths, want %d", got.numPaths, 3*aK)
	}
	// Error after the range: no cancellation, full scan of all 5 rows.
	if got := run(r.pairIndex(bilinear.SideB, 12, 0), 5, 10); got.numPaths != 5*aK {
		t.Errorf("error after range: worker enumerated %d paths, want %d", got.numPaths, 5*aK)
	}
	if got := run(math.MaxInt64, 5, 10); got.err != nil || got.numPaths != 5*aK {
		t.Errorf("healthy run: err=%v paths=%d", got.err, got.numPaths)
	}
	// A range spanning the side boundary (rows aK-1 and aK are the last
	// A-input and the first B-input) scans both sides' rows.
	if got := run(math.MaxInt64, aK-1, aK+1); got.err != nil || got.numPaths != 2*aK {
		t.Errorf("side-boundary range: err=%v paths=%d, want %d", got.err, got.numPaths, 2*aK)
	}
}

// TestParallelCancellationStopsEarly is the end-to-end companion: on a
// corrupted routing at k=4 (131072 paths) with full adjacency checking,
// the parallel verifier must stop well short of enumerating everything.
// The corruption puts an error in every row, so each shard fails on its
// own; with 128 shards for 8 workers, only the engine's refusal to claim
// shards after a published error keeps the run short. The returned Stats
// cover folded shards only, and a failed shard is never folded, so the
// workers' Final snapshots are the measure: Total sums the paths of the
// shards they claimed, Done the paths they enumerated.
func TestParallelCancellationStopsEarly(t *testing.T) {
	r := corruptRouter(t, 4)
	total := 2 * r.powA[r.k] * r.powA[r.k]
	var claimed, enumerated atomic.Int64
	r.Progress = func(p Progress) {
		if p.Final {
			claimed.Add(p.Total)
			enumerated.Add(p.Done)
		}
	}
	if _, err := r.VerifyFullRoutingCheckpointed(8, CheckpointConfig{ShardRows: 4}); err == nil {
		t.Fatal("corrupted matching accepted")
	}
	if n := claimed.Load(); n >= 3*total/4 {
		t.Fatalf("workers did not cancel: shards of %d of %d paths claimed", n, total)
	}
	if n := enumerated.Load(); n >= 3*total/4 {
		t.Fatalf("workers did not cancel: %d of %d paths enumerated", n, total)
	}
}

// TestProgressReporting checks the observability contract: every worker
// emits exactly one final snapshot, whose Done covers every shard it
// claimed, and the final snapshots sum to the verified path count.
func TestProgressReporting(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	var mu sync.Mutex
	finals := make(map[int]Progress)
	var snapshots int
	r.Progress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		snapshots++
		if p.Worker < 0 || p.Worker >= p.Workers {
			t.Errorf("worker %d out of range [0,%d)", p.Worker, p.Workers)
		}
		if p.Final {
			if _, dup := finals[p.Worker]; dup {
				t.Errorf("worker %d: second final snapshot", p.Worker)
			}
			finals[p.Worker] = p
		}
	}
	st, err := r.VerifyFullRoutingParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 4 {
		t.Fatalf("%d final snapshots, want 4", len(finals))
	}
	var done int64
	for w, p := range finals {
		if p.Done != p.Total {
			t.Errorf("worker %d: final Done %d != Total %d", w, p.Done, p.Total)
		}
		// Dynamic claiming can leave a worker idle; only one that
		// verified paths must report a positive peak.
		if (p.Done > 0 && p.PeakVertexHits <= 0) || p.PeakVertexHits > st.MaxVertexHits {
			t.Errorf("worker %d: peak %d outside (0, %d] after %d paths", w, p.PeakVertexHits, st.MaxVertexHits, p.Done)
		}
		done += p.Done
	}
	if done != st.NumPaths {
		t.Errorf("workers report %d paths, stats report %d", done, st.NumPaths)
	}
	r.Progress = nil
}

// TestWorkerPartitionCoversRange checks the default shard geometry
// the in-memory runs share with persisted ones: shards tile the rows
// exactly, there are at least min(rows, workers) of them so no worker
// count loses parallelism, and the CLI (Strassen k=5, one worker) and
// service (k=6, two workers) workloads keep the geometry of the
// persisted engine they had before in-memory runs were sharded (2×1024
// and 32×256 rows). Every worker count verifies every path.
func TestWorkerPartitionCoversRange(t *testing.T) {
	for k, want := range map[int]shardPlan{
		5: {rows: 2048, shardRows: 1024, numShards: 2},
		6: {rows: 8192, shardRows: 256, numShards: 32},
	} {
		r := &Router{k: k, powA: []int64{1, 4, 16, 64, 256, 1024, 4096}}
		if got := r.shardPlan(0, k-4); got != want {
			t.Errorf("Strassen k=%d, %d workers: plan %+v, want %+v", k, k-4, got, want)
		}
	}
	for k := 1; k <= 3; k++ {
		r := mustRouter(t, bilinear.Strassen(), k)
		for _, w := range []int{1, 2, 3, 4, 5, 7, 64, 1000} {
			p := r.shardPlan(0, w)
			if p.numShards < min(p.rows, int64(w)) || p.shardRows < 1 ||
				(p.numShards-1)*p.shardRows >= p.rows || p.numShards*p.shardRows < p.rows {
				t.Fatalf("k=%d workers=%d: plan %+v does not tile %d rows into ≥ min(rows, workers) shards",
					k, w, p, r.numRows())
			}
		}
	}
	r := mustRouter(t, bilinear.Strassen(), 1) // aK = 4, 8 rows
	for _, w := range []int{1, 2, 3, 4, 5, 64} {
		st, err := r.VerifyFullRoutingParallel(w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want := 2 * r.powA[r.k] * r.powA[r.k]; st.NumPaths != want {
			t.Fatalf("workers=%d: %d paths, want %d", w, st.NumPaths, want)
		}
	}
}
