// Package obs is the unified observability layer of the verification
// engine: a stdlib-only metrics registry with Prometheus text-format
// exposition, span tracing into the internal/runlog journal, a periodic
// heartbeat emitter, and an optional debug HTTP server serving
// /metrics, /healthz, and /debug/pprof.
//
// The paper's whole argument is segment-level cost accounting — each
// schedule segment pays at least |δ'(S')| − 2M I/O — and long Routing
// Theorem verifications deserve the same treatment: per-shard latency,
// per-segment I/O, and live counters, not just a final total. Every
// instrument here is optional and nil-safe, so the hot enumeration
// paths pay a single pointer test when observability is off.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Registry holds named metrics and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use; the
// individual metric types are lock-free atomics, so updating them from
// many verification workers costs one atomic op.
type Registry struct {
	mu         sync.Mutex
	metrics    map[string]metric
	beforeRead func() // refreshes on-read families (see RegisterRuntimeMetrics)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// metric is the exposition interface every instrument implements.
type metric interface {
	metricName() string
	write(w io.Writer) error
	// snapshot appends the metric's scalar values (counters and gauges
	// as themselves; histograms as _count and _sum) for heartbeats.
	snapshot(into map[string]float64)
}

// register installs m, or returns the already-registered metric of the
// same name. Re-registering a name as a different kind is a programming
// error and panics, like a duplicate Prometheus collector would.
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.metrics[m.metricName()]; ok {
		return have
	}
	r.metrics[m.metricName()] = m
	return m
}

// Counter returns the registered monotonically increasing counter of
// the given name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&Counter{name: mustMetricName(name), help: help})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a counter", name))
	}
	return c
}

// Gauge returns the registered gauge of the given name, creating it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&Gauge{name: mustMetricName(name), help: help})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a gauge", name))
	}
	return g
}

// Histogram returns the registered fixed-bucket histogram of the given
// name, creating it with the given upper bounds on first use (a final
// +Inf bucket is implicit). Bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{name: mustMetricName(name), help: help, bounds: append([]float64(nil), bounds...)}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] <= h.bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted ascending", name))
		}
	}
	h.buckets = make([]atomic.Int64, len(h.bounds)+1)
	m := r.register(h)
	have, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a histogram", name))
	}
	return have
}

// setBeforeRead installs f as the pre-read hook WriteTo and Snapshot
// run before reading any value.
func (r *Registry) setBeforeRead(f func()) {
	r.mu.Lock()
	r.beforeRead = f
	r.mu.Unlock()
}

// read runs the pre-read hook, then returns every registered metric,
// sorted by name.
func (r *Registry) read() []metric {
	r.mu.Lock()
	hook := r.beforeRead
	r.mu.Unlock()
	if hook != nil {
		hook()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	ms := make([]metric, 0, len(names))
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	return ms
}

// WriteTo renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name so output is
// deterministic and diffable.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, m := range r.read() {
		if err := m.write(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// Snapshot returns the current scalar values of every metric, keyed by
// metric name (histograms contribute name_count and name_sum). This is
// what heartbeat records carry into the journal.
func (r *Registry) Snapshot() map[string]float64 {
	ms := r.read()
	snap := make(map[string]float64, 2*len(ms))
	for _, m := range ms {
		m.snapshot(snap)
	}
	return snap
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// mustMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]* at registration, where a typo is loud,
// instead of producing an exposition no scraper will parse.
func mustMetricName(name string) string {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
	return name
}

func writeHeader(w io.Writer, name, help, kind string) error {
	if help != "" {
		// Escape newlines per the exposition format.
		help = strings.ReplaceAll(help, "\n", `\n`)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

// formatFloat renders metric values the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// A Counter is a monotonically increasing int64 metric. The zero value
// must not be used directly; obtain counters from a Registry (or, for
// labeled children, from a CounterVec). All methods are nil-safe
// no-ops so call sites need no instrumentation branches.
type Counter struct {
	name, help string
	labels     string // rendered `key="val",…` label set; "" for plain counters
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (which must be ≥ 0 to keep the counter monotonic).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }

// seriesName is the exposition/snapshot identity: the metric name,
// plus the label set for vec children.
func (c *Counter) seriesName() string {
	if c.labels == "" {
		return c.name
	}
	return c.name + "{" + c.labels + "}"
}

func (c *Counter) write(w io.Writer) error {
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	return c.writeValue(w)
}

func (c *Counter) writeValue(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", c.seriesName(), c.v.Load())
	return err
}

func (c *Counter) snapshot(into map[string]float64) { into[c.seriesName()] = float64(c.v.Load()) }

// A Gauge is a float64 metric that can go up and down. Obtain gauges
// from a Registry; methods are nil-safe no-ops.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Max raises the gauge to v if v exceeds the current value — the shape
// peak trackers (peak vertex hits, high-water marks) need, done with a
// CAS loop so concurrent workers cannot lose a larger peak.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
	return err
}

func (g *Gauge) snapshot(into map[string]float64) { into[g.name] = g.Value() }

// A Histogram is a fixed-bucket cumulative histogram. Observations are
// two atomic adds plus one atomic CAS loop for the sum — cheap enough
// for per-shard and per-segment latencies (not for per-path use; the
// engine batches those through counters instead). Methods are nil-safe.
type Histogram struct {
	name, help string
	labels     string    // rendered label set for vec children; "" otherwise
	bounds     []float64 // upper bounds; +Inf bucket implicit
	buckets    []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveN records n observations of v in one shot — the bulk form
// the runtime sampler uses to republish runtime/metrics histogram
// bucket deltas (n new GC pauses near duration v) without n calls.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the common
// latency-timer idiom `defer h.ObserveSince(time.Now())`.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) metricName() string { return h.name }

// series renders the labeled suffix forms: `name_sum{labels}` and the
// bucket prefix the `le` label is appended to.
func (h *Histogram) series(suffix string) string {
	if h.labels == "" {
		return h.name + suffix
	}
	return h.name + suffix + "{" + h.labels + "}"
}

func (h *Histogram) write(w io.Writer) error {
	if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	return h.writeValue(w)
}

func (h *Histogram) writeValue(w io.Writer) error {
	bucketPrefix := ""
	if h.labels != "" {
		bucketPrefix = h.labels + ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, bucketPrefix, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, bucketPrefix, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", h.series("_sum"), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", h.series("_count"), h.count.Load())
	return err
}

func (h *Histogram) snapshot(into map[string]float64) {
	into[h.series("_count")] = float64(h.count.Load())
	into[h.series("_sum")] = h.Sum()
}

// LatencyBuckets is the default bound set for second-denominated
// latency histograms, spanning 100µs (one small shard) to ~2 minutes.
var LatencyBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 5, 15, 60, 120}

// ExponentialBuckets returns n bounds start, start·factor, ... — the
// usual shape for size-like quantities (I/O per segment, paths per
// shard).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = start
		start *= factor
	}
	return bounds
}
