package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must match Python's statistics.quantiles(n=4), the
// method run-to-run spread is judged by, including its extrapolation
// on two points.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 2, 3, 1}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSummary(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, so an all-failed run reports no value")
	}
	if s := summarize([]float64{4, 2, 3, 1}); s != (summary{N: 4, Q1: 1.25, Median: 2.5, Q3: 3.75}) {
		t.Errorf("summary = %+v", s)
	}
}

var (
	k5Line = "paths=2097152 totalHits=71303168 maxVertexHits=4608 maxMetaHits=4032 bound=6144 adjChecked=8161"
	pins   = pinned{cliSpec.key(): k5Line}
)

func TestPinnedCertificateAccepted(t *testing.T) {
	if _, err := pins.check(cliSpec, "stats: "+k5Line+"\n"); err != nil {
		t.Fatal(err)
	}
}

// Every corruption of the certificate is caught, by the parser, the
// closed forms, or the pinned oracle line.
func TestCorruptedCertificateRejected(t *testing.T) {
	for _, bad := range []string{
		strings.Replace(k5Line, "maxVertexHits=4608", "maxVertexHits=4609", 1), // pinned only
		strings.Replace(k5Line, "paths=2097152", "paths=2097151", 1),           // NumPaths = 2·a²ᵏ
		strings.Replace(k5Line, "totalHits=71303168", "totalHits=71303169", 1), // TotalHits = NumPaths·(6k+4)
		strings.Replace(k5Line, "bound=6144", "bound=6145", 1),                 // Bound = 6aᵏ
		strings.Replace(k5Line, " adjChecked=8161", "", 1),
		k5Line + " extra=1",
		"",
	} {
		if _, err := pins.check(cliSpec, bad); err == nil {
			t.Errorf("corrupted certificate %q accepted", bad)
		}
	}
	if _, err := pins.check(jobSpec, k5Line); err == nil {
		t.Error("certificate checked against the wrong spec accepted")
	}
}

func TestClosedFormsAcrossBaseDimensions(t *testing.T) {
	for _, c := range []struct {
		s    spec
		line string
	}{
		{spec{Alg: "laderman", N0: 3, K: 3}, "paths=1062882 totalHits=23383404 maxVertexHits=2916 maxMetaHits=2880 bound=4374 adjChecked=4136"},
		{spec{Alg: "strassen2", N0: 4, K: 2}, "paths=131072 totalHits=2097152 maxVertexHits=1152 maxMetaHits=992 bound=1536 adjChecked=511"},
	} {
		cert, err := parseCert(c.line)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkClosedForms(c.s, cert); err != nil {
			t.Error(err)
		}
	}
}

// A corrupted stats line from the program counts as a failed request.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	b := &bench{pins: pins}
	good := cliRun{Stdout: "header\nstats: " + k5Line + "\nVERIFIED\n"}
	bad := cliRun{Stdout: "stats: " + strings.Replace(k5Line, "4032", "4033", 1) + "\n"}
	b.check(b.checkCLI(cliSpec, good, nil))
	b.check(b.checkCLI(cliSpec, bad, nil))
	b.check(b.checkCLI(cliSpec, cliRun{Stdout: "no stats here\n"}, nil))
	if b.attempted != 3 || b.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", b.attempted, b.failed)
	}
}

func TestCheckHit(t *testing.T) {
	hit := jobDoc{State: "done", Cached: true, Certificate: k5Line}
	if err := checkHit(cliSpec, 200, hit, k5Line); err != nil {
		t.Error(err)
	}
	for name, c := range map[string]struct {
		status int
		doc    jobDoc
	}{
		"not cached":       {200, jobDoc{State: "done", Certificate: k5Line}},
		"accepted":         {202, hit},
		"other cert":       {200, jobDoc{State: "done", Cached: true, Certificate: k5Line + "0"}},
		"not terminal yet": {200, jobDoc{State: "queued", Cached: true, Certificate: k5Line}},
	} {
		if err := checkHit(cliSpec, c.status, c.doc, k5Line); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFinalEvent(t *testing.T) {
	stream := ": keepalive\n\n" +
		"id: 1\nevent: queued\ndata: {\"id\":\"j1\",\"state\":\"queued\"}\n\n" +
		"id: 2\nevent: shard\ndata: {\"id\":\"j1\",\"state\":\"running\"}\n\n" +
		"id: 3\nevent: final\ndata: {\"id\":\"j1\",\"state\":\"done\",\"certificate\":\"" + k5Line +
		"\",\"resources\":{\"cpu_sec\":1.5,\"queue_wait_sec\":0.25,\"alloc_bytes\":7}}\n\n" +
		"id: 4\nevent: shard\ndata: {}\n\n"
	doc, err := finalEvent(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != "done" || doc.Certificate != k5Line || doc.Resources == nil || doc.Resources.CPUSec != 1.5 {
		t.Errorf("final doc = %+v", doc)
	}
	if _, err := finalEvent(strings.NewReader("event: shard\ndata: {}\n\n: draining\n\n")); err == nil {
		t.Error("a stream that ends without a final event must be an error")
	}
	// An unterminated final frame is not a final event.
	if _, err := finalEvent(strings.NewReader("event: final\ndata: {\"state\":\"done\"}\n")); err == nil {
		t.Error("an unterminated final frame must be an error")
	}
}

func TestMetricValues(t *testing.T) {
	page := "# TYPE serve_jobs_submitted_total counter\nserve_jobs_submitted_total 18\n" +
		"serve_result_cache_hits_total 12\nserve_submissions_total{outcome=\"hit\"} 12\n"
	m, err := metricValues(page, "serve_jobs_submitted_total", "serve_result_cache_hits_total")
	if err != nil {
		t.Fatal(err)
	}
	if m["serve_jobs_submitted_total"] != 18 || m["serve_result_cache_hits_total"] != 12 {
		t.Errorf("values = %v", m)
	}
	if _, err := metricValues(page, "missing_total"); err == nil {
		t.Error("a missing counter must be an error")
	}
}

func TestAnnounceWaitsForCompleteLine(t *testing.T) {
	a := &announce{ready: make(chan struct{})}
	a.Write([]byte("routed listening on http://127.0.0.1:4"))
	select {
	case <-a.ready:
		t.Fatal("ready on a partial line")
	default:
	}
	a.Write([]byte("2\n"))
	<-a.ready
	if a.url != "http://127.0.0.1:42" {
		t.Errorf("url = %q", a.url)
	}
}

// Every hit follows its spec's cold job, every spec gets its hits, and
// the seed alone fixes the order.
func TestPlan(t *testing.T) {
	ops := plan(rand.New(rand.NewSource(7)), catalogSpecs, 2)
	cold := map[string]bool{}
	hits := map[string]int{}
	for _, o := range ops {
		k := o.spec.key()
		if o.hit {
			if !cold[k] {
				t.Fatalf("hit on %s before its cold job", k)
			}
			hits[k]++
		} else {
			cold[k] = true
		}
	}
	for _, s := range catalogSpecs {
		if !cold[s.key()] || hits[s.key()] != 2 {
			t.Errorf("%s: cold %t, %d hits", s.key(), cold[s.key()], hits[s.key()])
		}
	}
	again := plan(rand.New(rand.NewSource(7)), catalogSpecs, 2)
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatal("same seed, different plan")
		}
	}
}

func TestSelfTime(t *testing.T) {
	root := span{ID: 1, Start: 0, End: 10}
	kids := []span{
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 4},  // overlaps the first: counted once
		{ID: 4, Parent: 1, Start: 9, End: 12}, // clipped to the parent
	}
	if s := selfTime(root, kids); !near(s, 10-3-1) {
		t.Errorf("self time = %v, want 6", s)
	}
	self := selfTimes(append([]span{root}, kids...))
	if !near(self[""], 6+2+2+3) {
		t.Errorf("self times = %v", self)
	}
}

// The residuals are what the program's certificate time leaves after
// the in-process work: the library phases for routecheck, the whole
// untraced pipeline for routed.
func TestResiduals(t *testing.T) {
	tr := &tracer{t0: time.Unix(0, 0)}
	at := func(s float64) time.Time { return tr.t0.Add(time.Duration(s * float64(time.Second))) }
	root := tr.add("c", "cert", 0, at(0), at(1.0))
	tr.add("c", "cdag.build", root, at(0), at(0.1))
	tr.add("c", "routing.scan", root, at(0.1), at(0.7))
	tr.add("c", "routing.chainusage", root, at(0.7), at(0.9))
	res := pipeResult{root: root, wall: 1.0, paths: 600, scan: 0.6,
		ins: routing.NewInstruments(obs.NewRegistry())}

	v := map[string]float64{}
	cli := &bench{w: workloads[0]}
	cli.layerValues(tr, v, []pipeResult{res}, 0.95, pass{certs: []float64{2.5}})
	for name, want := range map[string]float64{
		"routecheck.residual_s": 2.5 - 0.9,
		"serve.residual_s":      0,
		"trace.unattributed_s":  0.1,
		"trace.overhead_frac":   1.0/0.95 - 1,
		"routing.scan_s":        0.6,
		"routing.scan_share":    0.6 / 2.5,
		"cdag.build_s":          0.1,
		"routing.chainusage_s":  0.2,
	} {
		if !near(v[name], want) {
			t.Errorf("cli %s = %v, want %v", name, v[name], want)
		}
	}

	v = map[string]float64{}
	job := &bench{w: workloads[1], jobWorkers: 2}
	job.layerValues(tr, v, []pipeResult{res}, 0.95, pass{certs: []float64{1.4}, submitted: 4, cacheHits: 3})
	for name, want := range map[string]float64{
		"serve.residual_s":      1.4 - 0.95,
		"routecheck.residual_s": 0,
		"serve.hit_ratio":       0.75,
	} {
		if !near(v[name], want) {
			t.Errorf("job %s = %v, want %v", name, v[name], want)
		}
	}
}
