package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
)

// span is one timed call into a layer. Spans of one certificate share
// Cert; Parent 0 marks the certificate's root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Cert   string  `json:"cert"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced pipeline runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // OnShard callbacks arrive on engine goroutines
	spans []span
}

func (t *tracer) add(cert, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cert: cert, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return id
}

// begin opens a span; finish closes it.
func (t *tracer) begin(cert, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(cert, name, parent, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children count once).
func selfTime(s span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := 0.0, s.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return s.dur() - covered
}

// selfTimes sums self time by span name over every span.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += selfTime(s, kids[s.ID])
	}
	return out
}

// pipeline is one certificate computed in process through the layers'
// public functions: the work routecheck or a routed job does, minus
// the process and the service around it.
type pipeline struct {
	spec    spec
	workers int
	// ckpt is the checkpoint file of a job-shaped run; empty runs the
	// in-memory scan plus the Lemma 4 chain-usage check, as routecheck.
	ckpt string
}

// pipeResult is what one pipeline run measured.
type pipeResult struct {
	root      int // root span (traced runs)
	wall      float64
	vertices  int
	paths     int64
	scan      float64
	shardGaps []float64 // seconds between consecutive OnShard calls
	ckptBytes int64
	ins       *routing.Instruments // traced runs only
}

func algorithm(name string) (*bilinear.Algorithm, error) {
	for _, a := range bilinear.All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// run computes pl's certificate in process and checks it. With a
// tracer it records a span around every layer call and attaches the
// engine's instruments to a registry of its own.
func (pl pipeline) run(t *tracer, certID string, pins pinned) (pipeResult, error) {
	var res pipeResult
	alg, err := algorithm(pl.spec.Alg)
	if err != nil {
		return res, err
	}
	start := time.Now()
	root := t.begin(certID, "cert", 0)
	res.root = root
	sp := t.begin(certID, "cdag.build", root)
	g, err := cdag.New(alg, pl.spec.K)
	t.finish(sp)
	if err != nil {
		return res, err
	}
	res.vertices = g.NumVertices()
	sp = t.begin(certID, "cdag.csr", root)
	g.EnsureAdjacencyIndex()
	t.finish(sp)
	sp = t.begin(certID, "cdag.metaroot", root)
	g.EnsureMetaRootIndex()
	t.finish(sp)
	sp = t.begin(certID, "hall.matching", root)
	bm, err := routing.NewBaseMatching(alg)
	t.finish(sp)
	if err != nil {
		return res, err
	}
	r, err := routing.NewRouterWithMatching(g, bm)
	if err != nil {
		return res, err
	}
	r.OrbitReduction = true
	if t != nil {
		res.ins = routing.NewInstruments(obs.NewRegistry())
		r.Obs = res.ins
	}

	scanStart := time.Now()
	scan := t.begin(certID, "routing.scan", root)
	var st routing.Stats
	if pl.ckpt == "" {
		st, err = r.VerifyFullRoutingParallel(pl.workers)
	} else {
		last := scanStart
		var onShard func(routing.ShardDone)
		if t != nil {
			onShard = func(d routing.ShardDone) {
				now := time.Now()
				t.add(certID, "routing.shard", scan, last, now)
				res.shardGaps = append(res.shardGaps, now.Sub(last).Seconds())
				last = now
			}
		}
		st, err = r.VerifyFullRoutingCheckpointed(pl.workers, routing.CheckpointConfig{
			Path: pl.ckpt, OnShard: onShard})
	}
	t.finish(scan)
	res.scan = time.Since(scanStart).Seconds()
	if err != nil {
		return res, err
	}
	if pl.ckpt == "" {
		sp = t.begin(certID, "routing.chainusage", root)
		err = r.VerifyChainUsage()
		t.finish(sp)
		if err != nil {
			return res, err
		}
	} else {
		fi, err := os.Stat(pl.ckpt)
		if err != nil {
			return res, err
		}
		res.ckptBytes = fi.Size()
		os.Remove(pl.ckpt)
	}
	t.finish(root)
	res.wall = time.Since(start).Seconds()
	res.paths = st.NumPaths
	line := fmt.Sprintf("paths=%d totalHits=%d maxVertexHits=%d maxMetaHits=%d bound=%d adjChecked=%d",
		st.NumPaths, st.TotalHits, st.MaxVertexHits, st.MaxMetaHits, st.Bound, st.AdjacencyChecked)
	_, err = pins.check(pl.spec, line)
	return res, err
}

// pipelines returns the in-process counterparts of one cold pass.
func (b *bench) pipelines() []pipeline {
	var out []pipeline
	for _, s := range b.w.specs {
		pl := pipeline{spec: s, workers: b.workers()}
		if !b.w.cli {
			pl.ckpt = filepath.Join(b.work, s.key()+".ckpt")
		}
		out = append(out, pl)
	}
	return out
}

// layer is one per-layer metric and the end-to-end metric it should
// move, on the workload where it should move it.
type layer struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"moves"`
}

// layers are the per-layer metrics. Every value is a per-pass total
// unless its name says otherwise. Layers a workload does not go
// through read 0: routecheck on the routed workloads, checkpoints and
// the service on cli-k5.
var layers = []layer{
	{"cert_s", "s", "median program certificate time, exec to exit or POST to final: what users wait for"},
	{"paths_per_s", "paths/s", "paths of a cold pass ÷ its program wall time"},
	{"cdag.build_s", "s", "cpu_s, paths_per_s on catalog; barely job-k6"},
	{"cdag.csr_s", "s", "cpu_s, paths_per_s on catalog; barely job-k6"},
	{"cdag.metaroot_s", "s", "cpu_s, paths_per_s on catalog; barely job-k6"},
	{"hall.matching_s", "s", "cpu_s, paths_per_s on catalog; barely job-k6"},
	{"cdag.vertices", "count", "size of the graphs the pass builds"},
	{"routing.scan_s", "s", "cpu_s, cert_s, paths_per_s on job-k6; on cli-k5 once its second pass is gone"},
	{"routing.scan_paths_per_s", "paths/s", "cpu_s, cert_s, paths_per_s on job-k6"},
	{"routing.scan_share", "ratio", "scan ÷ program certificate time: cert_s on job-k6"},
	{"routing.hitvec_mb", "MB-computed", "8·|V|·workers, largest spec; compare l2_bytes: cpu_s, cert_s on job-k6"},
	{"routing.orbit_families", "count", "cpu_s, cert_s on job-k6"},
	{"routing.chainusage_s", "s", "cpu_s, cert_s on cli-k5 only"},
	{"routing.shards", "count", "cert_s on job-k6; absent on cli-k5"},
	{"routing.shard_s", "s", "median gap between OnShard calls: cert_s on job-k6"},
	{"routing.persist_s", "s", "checkpoint encode+fsync and rename+dirsync: cert_s, cpu_s on job-k6"},
	{"routing.fsync_s", "s", "checkpoint encode+fsync: cert_s, cpu_s on job-k6"},
	{"routing.checkpoint_mb", "MB", "final checkpoint size: cert_s on job-k6"},
	{"routing.checkpoint_written_mb", "MB-computed", "flushes × final size: cert_s, cpu_s on job-k6"},
	{"routing.worker_busy_frac", "ratio", "shard enumerate ÷ (workers × scan): cert_s, cpu_s on job-k6"},
	{"serve.submit_ms", "ms", "median cold POST→202: cert_s, paths_per_s on catalog"},
	{"serve.queue_wait_s", "s", "cert_s, paths_per_s on catalog"},
	{"serve.hit_ratio", "ratio", "cache hits ÷ submissions from /metrics: serve.hit_ms on catalog"},
	{"serve.job_alloc_mb", "MB", "resources.alloc_bytes of the cold jobs: cpu_s, peak_rss_mb on catalog"},
	{"serve.residual_s", "s", "job certificates − in-process pipelines: cert_s, cpu_s on catalog"},
	{"serve.hit_ms", "ms", "median cache-hit POST→200: what a resubmitting user waits on catalog and job-k6"},
	{"routecheck.residual_s", "s", "CLI certificate − library phases: cert_s, cpu_s on cli-k5"},
	{"trace.overhead_frac", "ratio", "traced ÷ untraced in-process certificate − 1"},
	{"trace.unattributed_s", "s", "certificate time no layer span covers"},
}

// traced is the per-layer run. Each iteration computes the cold pass
// in process twice, with spans and without, then once through the
// program, untraced, so residuals and the tracing overhead compare
// like with like. Every per-layer value is the median over iterations
// of a per-pass total.
func (b *bench) traced(t *tracer) (map[string]metric, error) {
	rng := rand.New(rand.NewSource(b.seed))
	var iters []map[string]float64
	n := 0
	err := repeat(b.budget, func() error {
		n++
		v := map[string]float64{}
		var traced []pipeResult
		var untracedWall float64
		for _, pl := range b.pipelines() {
			// Alternate which copy runs first: the first one grows the
			// heap that the second one reuses.
			certID := pl.spec.key() + "#" + strconv.Itoa(n)
			for _, withSpans := range [][2]bool{{true, false}, {false, true}}[n%2] {
				if withSpans {
					res, err := pl.run(t, certID, b.pins)
					if b.check(err) {
						traced = append(traced, res)
					}
					continue
				}
				res, err := pl.run(nil, "", b.pins)
				if b.check(err) {
					untracedWall += res.wall
				}
			}
		}
		p, err := b.onePass(rng)
		if err != nil {
			return err
		}
		b.layerValues(t, v, traced, untracedWall, p)
		iters = append(iters, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, l := range layers {
		var xs []float64
		for _, v := range iters {
			xs = append(xs, v[l.Name])
		}
		out[l.Name] = metric{median(xs), l.Unit}
	}
	return out, nil
}

// layerValues fills v with one iteration's per-pass layer totals.
func (b *bench) layerValues(t *tracer, v map[string]float64, traced []pipeResult, untracedWall float64, p pass) {
	var tracedWall, phases, scanWork, busy, paths float64
	var gaps []float64
	workers := b.workers()
	for _, res := range traced {
		for _, c := range t.children(res.root) {
			v[c.Name+"_s"] += c.dur() // cdag.build → cdag.build_s, …
			phases += c.dur()
		}
		v["trace.unattributed_s"] += selfTime(t.get(res.root), t.children(res.root))
		tracedWall += res.wall
		v["cdag.vertices"] += float64(res.vertices)
		v["routing.hitvec_mb"] = max(v["routing.hitvec_mb"], float64(8*res.vertices*workers)/1e6)
		v["routing.orbit_families"] += float64(res.ins.OrbitFamilies.Value())
		v["routing.shards"] += float64(res.ins.ShardsDone.Value())
		gaps = append(gaps, res.shardGaps...)
		fsync, rename := res.ins.CheckpointFsync, res.ins.CheckpointRename
		v["routing.fsync_s"] += fsync.Sum()
		v["routing.persist_s"] += fsync.Sum() + rename.Sum()
		v["routing.checkpoint_mb"] += float64(res.ckptBytes) / 1e6
		v["routing.checkpoint_written_mb"] += float64(fsync.Count()*res.ckptBytes) / 1e6
		busy += res.ins.ShardEnumerate.Sum()
		scanWork += float64(workers) * res.scan
		paths += float64(res.paths)
	}
	if v["routing.scan_s"] > 0 {
		v["routing.scan_paths_per_s"] = paths / v["routing.scan_s"]
	}
	if scanWork > 0 {
		v["routing.worker_busy_frac"] = busy / scanWork
	}
	if len(gaps) > 0 {
		v["routing.shard_s"] = median(gaps)
	}
	if untracedWall > 0 {
		v["trace.overhead_frac"] = tracedWall/untracedWall - 1
	}
	certs := sum(p.certs)
	if len(p.certs) > 0 {
		v["cert_s"] = median(p.certs)
	}
	if len(p.certs) == len(b.w.specs) {
		v["paths_per_s"] = passPaths(b.w.specs) / certs
	}
	if certs > 0 {
		v["routing.scan_share"] = v["routing.scan_s"] / certs
	}
	if b.w.cli {
		v["routecheck.residual_s"] = certs - phases
		return
	}
	v["serve.residual_s"] = certs - untracedWall
	if len(p.submits) > 0 {
		v["serve.submit_ms"] = median(p.submits)
	}
	if len(p.hits) > 0 {
		v["serve.hit_ms"] = median(p.hits)
	}
	for _, d := range p.docs {
		v["serve.queue_wait_s"] += d.Resources.QueueWaitSec
		v["serve.job_alloc_mb"] += float64(d.Resources.AllocBytes) / 1e6
	}
	if p.submitted > 0 {
		v["serve.hit_ratio"] = p.cacheHits / p.submitted
	}
}
