package obs

import (
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestReadResourcesSane: a one-shot snapshot of a live Go process has
// the obviously-true properties — a heap, at least this goroutine,
// nonzero cumulative allocation, positive uptime.
func TestReadResourcesSane(t *testing.T) {
	snap := ReadResources()
	if snap.HeapBytes <= 0 {
		t.Fatalf("HeapBytes = %d", snap.HeapBytes)
	}
	if snap.Goroutines < 1 {
		t.Fatalf("Goroutines = %d", snap.Goroutines)
	}
	if snap.AllocBytes <= 0 {
		t.Fatalf("AllocBytes = %d", snap.AllocBytes)
	}
	if snap.Uptime <= 0 {
		t.Fatalf("Uptime = %f", snap.Uptime)
	}
	if snap.CPUSeconds < 0 {
		t.Fatalf("CPUSeconds = %f", snap.CPUSeconds)
	}
	rl := snap.Runlog()
	if rl.HeapBytes != snap.HeapBytes || rl.CPUSeconds != snap.CPUSeconds {
		t.Fatalf("Runlog conversion dropped fields: %+v vs %+v", rl, snap)
	}
}

// TestProcessInfo: the identity block has a PID, a parseable start
// time, and the toolchain version.
func TestProcessInfo(t *testing.T) {
	info := ProcessInfo()
	if info.PID <= 0 {
		t.Fatalf("PID = %d", info.PID)
	}
	if _, err := time.Parse(time.RFC3339Nano, info.StartTime); err != nil {
		t.Fatalf("StartTime %q: %v", info.StartTime, err)
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Fatalf("GoVersion = %q", info.GoVersion)
	}
	if info.UptimeSeconds <= 0 {
		t.Fatalf("UptimeSeconds = %f", info.UptimeSeconds)
	}
}

// TestRuntimeSamplerPublishes: a registry read populates every proc_*
// family in the exposition.
func TestRuntimeSamplerPublishes(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var out strings.Builder
	if _, err := reg.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, family := range []string{
		"proc_heap_bytes", "proc_goroutines", "proc_uptime_seconds",
		"proc_cpu_seconds_total", "proc_heap_growth_bytes_per_second",
		"proc_gc_pause_p99_seconds", "proc_sched_latency_p99_seconds",
		"proc_gc_cycles_total", "proc_alloc_bytes_total",
		"proc_gc_pause_seconds_bucket",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("exposition missing %s:\n%s", family, text)
		}
	}
	if strings.Contains(text, "\nproc_heap_bytes 0\n") {
		t.Fatalf("proc_heap_bytes not sampled on read:\n%s", text)
	}
}

// sink keeps the allocations of TestRuntimeMetricsRefreshOnRead live.
var sink [][]byte

// TestRuntimeMetricsRefreshOnRead: with no sampling goroutine, each
// Snapshot publishes a fresh reading — allocation between two reads
// shows up in proc_alloc_bytes_total.
func TestRuntimeMetricsRefreshOnRead(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	before := reg.Snapshot()["proc_alloc_bytes_total"]
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	after := reg.Snapshot()["proc_alloc_bytes_total"]
	sink = nil
	if before <= 0 || after < before+64*(64<<10) {
		t.Fatalf("proc_alloc_bytes_total %v -> %v across 4 MiB of allocation", before, after)
	}
}

// TestRuntimeSamplerRace: concurrent scrapes and snapshots of a
// registry carrying the runtime families must be clean under the race
// detector — each read runs the sampler, and the debug server and the
// heartbeat read the same registry at once.
func TestRuntimeSamplerRace(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				reg.Snapshot()
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				var out strings.Builder
				reg.WriteTo(&out)
			}
		}()
	}
	wg.Wait()
}

// TestHistQuantile: nearest-rank quantiles on a synthetic
// runtime-style histogram with ±Inf edges.
func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		// buckets: (-Inf,1e-4], (1e-4,1e-3], (1e-3,1e-2], (1e-2,+Inf)
		Counts:  []uint64{90, 8, 1, 1},
		Buckets: []float64{math.Inf(-1), 1e-4, 1e-3, 1e-2, math.Inf(1)},
	}
	if got := histQuantile(h, 0.50); got != 1e-4 {
		t.Fatalf("p50 = %g, want 1e-4", got)
	}
	if got := histQuantile(h, 0.99); got != 1e-2 {
		t.Fatalf("p99 = %g, want 1e-2 (last finite edge of the +Inf bucket)", got)
	}
	empty := &metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}
	if got := histQuantile(empty, 0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %g", got)
	}
}
