package obs

// Runtime self-telemetry: a runtime/metrics-backed sampler that
// publishes the process's own resource state — heap bytes, GC pause
// quantiles, goroutine count, scheduler latency, cumulative CPU and
// allocation — into the metrics registry as the proc_* families
// whenever the registry is read, and a one-shot ReadResources the
// job-accounting layer (internal/serve, routing.RunJob) uses to
// measure what one verification actually cost. The paper accounts I/O per schedule
// segment; this file accounts the verifier per job.

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"pathrouting/internal/runlog"
)

// processStart anchors uptime reporting; set once at process init so
// every daemon generation reports a distinct start time.
var processStart = time.Now()

// ProcessStart returns the time this process initialized the obs
// package (for all practical purposes, process start).
func ProcessStart() time.Time { return processStart }

// ProcInfo identifies a process generation: scrapes and the
// crash/resume smoke legs use it to tell two daemon generations of
// the same service apart, and to pin results to a build.
type ProcInfo struct {
	PID           int     `json:"pid"`
	StartTime     string  `json:"start_time"` // RFC 3339, UTC
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Module        string  `json:"module,omitempty"`
	ModuleVersion string  `json:"module_version,omitempty"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	VCSModified   bool    `json:"vcs_modified,omitempty"`
}

// ProcessInfo returns the process identity block /healthz and the
// GET /jobs envelope embed, built from debug.ReadBuildInfo.
func ProcessInfo() ProcInfo {
	info := ProcInfo{
		PID:           os.Getpid(),
		StartTime:     processStart.UTC().Format(time.RFC3339Nano),
		UptimeSeconds: time.Since(processStart).Seconds(),
		GoVersion:     runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			info.ModuleVersion = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.VCSRevision = s.Value
			case "vcs.time":
				info.VCSTime = s.Value
			case "vcs.modified":
				info.VCSModified = s.Value == "true"
			}
		}
	}
	return info
}

// runtime/metrics sample names the snapshot reads. Unknown names (an
// older runtime) come back KindBad and read as zero, never fail.
const (
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/gc/pauses:seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// A ResourceSnapshot is one reading of the process's resource state.
// The cumulative fields (AllocBytes, CPUSeconds, GCCycles) are since
// process start, so per-job costs are deltas between two snapshots.
type ResourceSnapshot struct {
	Time        time.Time
	HeapBytes   int64 // live heap object bytes
	AllocBytes  int64 // cumulative allocated bytes
	Goroutines  int64
	GCCycles    int64   // cumulative completed GC cycles
	GCPauseP50  float64 // seconds, distribution since process start
	GCPauseP99  float64
	SchedLatP50 float64 // scheduler latency quantiles, seconds
	SchedLatP99 float64
	CPUSeconds  float64 // process user+system CPU, cumulative
	Uptime      float64 // seconds since process start
}

// Runlog renders the snapshot as the compact schema-4 heartbeat block.
func (s ResourceSnapshot) Runlog() *runlog.Resources {
	return &runlog.Resources{
		HeapBytes:  s.HeapBytes,
		Goroutines: s.Goroutines,
		GCCycles:   s.GCCycles,
		GCPauseP99: s.GCPauseP99,
		Uptime:     s.Uptime,
		CPUSeconds: s.CPUSeconds,
		AllocBytes: s.AllocBytes,
	}
}

// ReadResources takes a one-shot resource snapshot. Cheap enough for
// per-job (not per-path) use: one runtime/metrics batch read plus one
// getrusage call.
func ReadResources() ResourceSnapshot {
	samples := []metrics.Sample{
		{Name: mHeapBytes}, {Name: mAllocBytes}, {Name: mGoroutines},
		{Name: mGCCycles}, {Name: mGCPauses}, {Name: mSchedLat},
	}
	metrics.Read(samples)
	now := time.Now()
	snap := ResourceSnapshot{
		Time:       now,
		CPUSeconds: processCPUSeconds(),
		Uptime:     now.Sub(processStart).Seconds(),
	}
	for i := range samples {
		s := &samples[i]
		switch s.Name {
		case mHeapBytes:
			snap.HeapBytes = sampleInt(s)
		case mAllocBytes:
			snap.AllocBytes = sampleInt(s)
		case mGoroutines:
			snap.Goroutines = sampleInt(s)
		case mGCCycles:
			snap.GCCycles = sampleInt(s)
		case mGCPauses:
			if h := sampleHist(s); h != nil {
				snap.GCPauseP50 = histQuantile(h, 0.50)
				snap.GCPauseP99 = histQuantile(h, 0.99)
			}
		case mSchedLat:
			if h := sampleHist(s); h != nil {
				snap.SchedLatP50 = histQuantile(h, 0.50)
				snap.SchedLatP99 = histQuantile(h, 0.99)
			}
		}
	}
	return snap
}

func sampleInt(s *metrics.Sample) int64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	v := s.Value.Uint64()
	if v > 1<<62 {
		return 1 << 62 // clamp: never overflow int64 in a JSON field
	}
	return int64(v)
}

func sampleHist(s *metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histQuantile is the nearest-rank quantile of a runtime/metrics
// histogram, using each bucket's finite edge as its value.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			return bucketValue(h.Buckets, i)
		}
	}
	return bucketValue(h.Buckets, len(h.Counts)-1)
}

// bucketValue picks a representative finite value for bucket i of a
// runtime histogram (Buckets has len(Counts)+1 edges and may open
// with -Inf or close with +Inf).
func bucketValue(edges []float64, i int) float64 {
	lo, hi := edges[i], edges[i+1]
	switch {
	case !isInf(hi):
		return hi
	case !isInf(lo):
		return lo
	default:
		return 0
	}
}

func isInf(v float64) bool { return v > 1e300 || v < -1e300 }

// A runtimeSampler publishes the runtime's own metrics as the proc_*
// families of one registry. It runs no goroutine: it is the registry's
// pre-read hook, so every /metrics scrape and heartbeat snapshot
// carries a reading taken at that moment. Between consecutive reads it
// computes the heap growth rate and republishes the new GC pauses into
// a real histogram.
type runtimeSampler struct {
	heap        *Gauge
	goroutines  *Gauge
	uptime      *Gauge
	cpuSeconds  *Gauge // monotonic; gauge because it is float-valued
	heapGrowth  *Gauge
	gcPauseP50  *Gauge
	gcPauseP99  *Gauge
	schedLatP50 *Gauge
	schedLatP99 *Gauge
	gcCycles    *Counter
	allocBytes  *Counter
	gcPauseHist *Histogram

	mu       sync.Mutex
	last     ResourceSnapshot
	haveLast bool
	prevGC   *metrics.Float64Histogram
}

// RegisterRuntimeMetrics registers the proc_* metric families on reg
// and refreshes them whenever reg is read (WriteTo or Snapshot).
func RegisterRuntimeMetrics(reg *Registry) {
	s := &runtimeSampler{
		heap: reg.Gauge("proc_heap_bytes",
			"live heap object bytes at the last runtime sample"),
		goroutines: reg.Gauge("proc_goroutines",
			"goroutine count at the last runtime sample"),
		uptime: reg.Gauge("proc_uptime_seconds",
			"seconds since process start"),
		cpuSeconds: reg.Gauge("proc_cpu_seconds_total",
			"cumulative process CPU (user+system) seconds"),
		heapGrowth: reg.Gauge("proc_heap_growth_bytes_per_second",
			"heap growth rate between the last two runtime samples"),
		gcPauseP50: reg.Gauge("proc_gc_pause_p50_seconds",
			"GC pause p50 over the process lifetime distribution"),
		gcPauseP99: reg.Gauge("proc_gc_pause_p99_seconds",
			"GC pause p99 over the process lifetime distribution"),
		schedLatP50: reg.Gauge("proc_sched_latency_p50_seconds",
			"scheduler latency p50 over the process lifetime distribution"),
		schedLatP99: reg.Gauge("proc_sched_latency_p99_seconds",
			"scheduler latency p99 over the process lifetime distribution"),
		gcCycles: reg.Counter("proc_gc_cycles_total",
			"completed GC cycles"),
		allocBytes: reg.Counter("proc_alloc_bytes_total",
			"cumulative heap bytes allocated"),
		gcPauseHist: reg.Histogram("proc_gc_pause_seconds",
			"GC pause durations (republished from runtime/metrics per sample)",
			GCPauseBuckets),
	}
	reg.setBeforeRead(s.sample)
}

// GCPauseBuckets spans the plausible stop-the-world range: 10µs
// (healthy sub-ms pauses) to 1s (a badly overloaded heap).
var GCPauseBuckets = []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1}

// sample takes a snapshot and publishes it into the proc_* families.
// The whole publication happens under s.mu, so concurrent reads of the
// registry publish their snapshots in order.
func (s *runtimeSampler) sample() {
	// Re-read the GC pause histogram alongside the scalar snapshot so
	// bucket deltas and quantiles come from the same read.
	pauses := []metrics.Sample{{Name: mGCPauses}}
	metrics.Read(pauses)
	snap := ReadResources()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.haveLast {
		if dt := snap.Time.Sub(s.last.Time).Seconds(); dt > 0 {
			s.heapGrowth.Set(float64(snap.HeapBytes-s.last.HeapBytes) / dt)
		}
		s.gcCycles.Add(max(0, snap.GCCycles-s.last.GCCycles))
		s.allocBytes.Add(max(0, snap.AllocBytes-s.last.AllocBytes))
	} else {
		// The first sample credits the history before it, so the
		// counters read as cumulative-since-start like their runtime
		// sources.
		s.gcCycles.Add(snap.GCCycles)
		s.allocBytes.Add(snap.AllocBytes)
	}
	if cur := sampleHist(&pauses[0]); cur != nil {
		s.republishPausesLocked(cur)
	}
	s.last, s.haveLast = snap, true

	s.heap.SetInt(snap.HeapBytes)
	s.goroutines.SetInt(snap.Goroutines)
	s.uptime.Set(snap.Uptime)
	s.cpuSeconds.Set(snap.CPUSeconds)
	s.gcPauseP50.Set(snap.GCPauseP50)
	s.gcPauseP99.Set(snap.GCPauseP99)
	s.schedLatP50.Set(snap.SchedLatP50)
	s.schedLatP99.Set(snap.SchedLatP99)
}

// republishPausesLocked folds the new GC pauses since the previous
// sample (bucket-count deltas of the cumulative runtime histogram)
// into the proc_gc_pause_seconds histogram. s.mu must be held.
func (s *runtimeSampler) republishPausesLocked(cur *metrics.Float64Histogram) {
	if s.prevGC != nil && len(s.prevGC.Counts) == len(cur.Counts) {
		for i, c := range cur.Counts {
			if d := c - s.prevGC.Counts[i]; d > 0 && d < 1<<62 {
				s.gcPauseHist.ObserveN(bucketValue(cur.Buckets, i), int64(d))
			}
		}
	}
	// Deep-copy: the runtime may reuse the sample's backing arrays.
	s.prevGC = &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), cur.Counts...),
		Buckets: append([]float64(nil), cur.Buckets...),
	}
}
