package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

var (
	// setupSpec is the smallest certificate: execing routecheck on it
	// measures the CLI's fixed start-up cost.
	setupSpec = spec{Alg: "strassen", N0: 2, K: 1}
	cliSpec   = spec{Alg: "strassen", N0: 2, K: 5}
	jobSpec   = spec{Alg: "strassen", N0: 2, K: 6}
	// catalogSpecs cover n₀ = 2, 3 and 4; disconnected56 is the paper's
	// disconnected-decoding, multiple-copying case.
	catalogSpecs = []spec{
		{Alg: "strassen", N0: 2, K: 4},
		{Alg: "winograd", N0: 2, K: 4},
		{Alg: "laderman", N0: 3, K: 3},
		{Alg: "classical3", N0: 3, K: 3},
		{Alg: "strassen2", N0: 4, K: 2},
		{Alg: "disconnected56", N0: 4, K: 2},
	}
)

// workload is one closed loop: one client, one request in flight.
type workload struct {
	name  string
	specs []spec // one cold pass, in catalog order
	cli   bool   // routecheck execs instead of routed jobs
	hits  int    // cache-hit resubmissions per spec and pass
}

var workloads = []workload{
	{name: "cli-k5", specs: []spec{cliSpec}, cli: true},
	{name: "job-k6", specs: []spec{jobSpec}, hits: 3},
	{name: "catalog", specs: catalogSpecs, hits: 2},
}

// setupReps is how many set-ups each run times; setup_s is their median.
const setupReps = 15

// bench is the state of one benchmark run.
type bench struct {
	w          workload
	routecheck string
	routed     string
	work       string // scratch dir inside the checkout
	pins       pinned
	seed       int64
	budget     time.Duration
	jobWorkers int

	attempted, failed int
	dirs              int // data dirs handed out
}

// workers is the verifier goroutine count of one certificate:
// routecheck runs with -workers 1, routed jobs with -jobworkers.
func (b *bench) workers() int {
	if b.w.cli {
		return 1
	}
	return b.jobWorkers
}

// check records the outcome of one request.
func (b *bench) check(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		return false
	}
	return true
}

// dataDir returns a fresh, empty daemon data dir.
func (b *bench) dataDir() string {
	b.dirs++
	return filepath.Join(b.work, "data"+strconv.Itoa(b.dirs))
}

// repeat calls fn until another call is projected to overrun the
// budget, and at least once.
func repeat(budget time.Duration, fn func() error) error {
	start := time.Now()
	for {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t) > budget {
			return nil
		}
	}
}

// setups times setupReps set-ups: routecheck execs of the smallest
// certificate for the CLI, or routed starts on empty data dirs. One
// untimed set-up goes first, so the page cache holds the freshly built
// binary as it does for anyone who runs it twice.
func (b *bench) setups() ([]float64, error) {
	var out []float64
	for i := 0; i <= setupReps; i++ {
		var took time.Duration
		if b.w.cli {
			r, err := runCLI(b.routecheck, cliArgs(setupSpec)...)
			if !b.check(b.checkCLI(setupSpec, r, err)) {
				continue
			}
			took = r.Wall
		} else {
			d, err := startDaemon(b.routed, b.dataDir(), b.jobWorkers)
			if err != nil {
				return nil, err
			}
			if _, err := d.stop(); err != nil {
				return nil, err
			}
			took = d.Setup
		}
		if i > 0 {
			out = append(out, took.Seconds())
		}
	}
	return out, nil
}

func cliArgs(s spec) []string {
	return []string{"-alg", s.Alg, "-k", strconv.Itoa(s.K), "-orbits", "-workers", "1"}
}

func (b *bench) checkCLI(s spec, r cliRun, err error) error {
	if err != nil {
		return err
	}
	line, err := statsLine(r.Stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", s.key(), err)
	}
	_, err = b.pins.check(s, line)
	return err
}

// pass is one cold pass over the workload's specs.
type pass struct {
	certs   []float64 // seconds per verified cold certificate
	submits []float64 // cold POST→response, ms
	hits    []float64 // cache-hit POST→200, ms
	usage   usage     // the child's (routecheck's, or routed's whole life)
	docs    []jobDoc  // terminal documents of the cold jobs
	// counters scraped from routed before it stops
	submitted, cacheHits float64
}

// op is one request of a daemon pass.
type op struct {
	spec spec
	hit  bool
}

// plan orders one daemon pass: the cold submissions in a seeded order,
// each spec's hits placed at seeded points after its cold job, so hits
// read the cache between cold jobs that write it.
func plan(rng *rand.Rand, specs []spec, hits int) []op {
	order := append([]spec(nil), specs...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	after := make([][]spec, len(order)) // hits issued after cold job i
	for i, s := range order {
		for h := 0; h < hits; h++ {
			slot := i + rng.Intn(len(order)-i)
			after[slot] = append(after[slot], s)
		}
	}
	var ops []op
	for i, s := range order {
		ops = append(ops, op{spec: s})
		for _, h := range after[i] {
			ops = append(ops, op{spec: h, hit: true})
		}
	}
	return ops
}

// cliPass execs routecheck once on the workload's spec.
func (b *bench) cliPass() pass {
	s := b.w.specs[0]
	r, err := runCLI(b.routecheck, cliArgs(s)...)
	p := pass{usage: r.Usage}
	if b.check(b.checkCLI(s, r, err)) {
		p.certs = append(p.certs, r.Wall.Seconds())
	}
	return p
}

// daemonPass starts routed on an empty data dir, runs the ops, and
// drains it. Cold jobs are timed from POST to the `final` SSE event.
func (b *bench) daemonPass(ops []op) (pass, error) {
	d, err := startDaemon(b.routed, b.dataDir(), b.jobWorkers)
	if err != nil {
		return pass{}, err
	}
	var p pass
	certs := map[string]string{}
	for _, o := range ops {
		if o.hit {
			status, doc, lat, err := submit(d.URL, o.spec)
			if err == nil {
				err = checkHit(o.spec, status, doc, certs[o.spec.key()])
			}
			if b.check(err) {
				p.hits = append(p.hits, lat.Seconds()*1e3)
			}
			continue
		}
		start := time.Now()
		status, doc, lat, err := submit(d.URL, o.spec)
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("%s: cold submission answered %d (cached=%t)", o.spec.key(), status, doc.Cached)
		}
		if err == nil {
			doc, err = awaitFinal(d.URL, doc.ID)
		}
		wall := time.Since(start)
		if err == nil {
			err = b.checkDoc(o.spec, doc)
		}
		if b.check(err) {
			p.certs = append(p.certs, wall.Seconds())
			p.submits = append(p.submits, lat.Seconds()*1e3)
			p.docs = append(p.docs, doc)
			certs[o.spec.key()] = doc.Certificate
		}
	}
	m, err := scrape(d.URL, "serve_jobs_submitted_total", "serve_result_cache_hits_total")
	client.CloseIdleConnections()
	u, stopErr := d.stop()
	if err != nil {
		return p, err
	}
	if stopErr != nil {
		return p, stopErr
	}
	p.usage, p.submitted, p.cacheHits = u, m["serve_jobs_submitted_total"], m["serve_result_cache_hits_total"]
	return p, nil
}

// checkDoc verifies a cold job's terminal document.
func (b *bench) checkDoc(s spec, doc jobDoc) error {
	if doc.State != "done" {
		return fmt.Errorf("%s: job %s ended %q: %s", s.key(), doc.ID, doc.State, doc.Error)
	}
	if doc.Cached {
		return fmt.Errorf("%s: cold job %s came from the cache", s.key(), doc.ID)
	}
	if doc.Resources == nil {
		return fmt.Errorf("%s: job %s has no resources block", s.key(), doc.ID)
	}
	_, err := b.pins.check(s, doc.Certificate)
	return err
}

// checkHit verifies a resubmission came back from the cache with the
// certificate its cold job produced.
func checkHit(s spec, status int, doc jobDoc, cold string) error {
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("%s: resubmission answered %d", s.key(), status)
	case !doc.Cached || doc.State != "done":
		return fmt.Errorf("%s: resubmission not served from the cache (state %q, cached=%t)", s.key(), doc.State, doc.Cached)
	case cold == "" || doc.Certificate != cold:
		return fmt.Errorf("%s: cached certificate %q differs from the cold one %q", s.key(), doc.Certificate, cold)
	}
	return nil
}

// onePass runs one cold pass of the workload through the program.
func (b *bench) onePass(rng *rand.Rand) (pass, error) {
	if b.w.cli {
		return b.cliPass(), nil
	}
	return b.daemonPass(plan(rng, b.w.specs, b.w.hits))
}

// passPaths is the number of pair paths one cold pass certifies.
func passPaths(specs []spec) float64 {
	var n float64
	for _, s := range specs {
		a := float64(s.N0 * s.N0)
		aK := 1.0
		for i := 0; i < s.K; i++ {
			aK *= a
		}
		n += 2 * aK * aK
	}
	return n
}

// endToEnd measures what a user waits for, untraced. Besides the
// metrics it returns the distribution of the samples behind each.
func (b *bench) endToEnd() (map[string]metric, map[string]summary, error) {
	setup, err := b.setups()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	var certs, sweeps, cpu, rss []float64
	err = repeat(b.budget, func() error {
		p, err := b.onePass(rng)
		if err != nil {
			return err
		}
		certs = append(certs, p.certs...)
		if len(p.certs) == len(b.w.specs) { // a pass with a failure has no sweep time
			sweeps = append(sweeps, sum(p.certs))
		}
		cpu = append(cpu, p.usage.CPU)
		rss = append(rss, p.usage.MaxRSS)
		fmt.Fprintf(os.Stderr, "pass: certs %.4f s, cpu %.3f s, rss %.1f MB\n", p.certs, p.usage.CPU, p.usage.MaxRSS)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Certificate and sweep times swing with the CPU time the host
	// steals (steal_frac), run to run more than a gate can bound, so
	// they are reported here as distributions and per layer as cert_s
	// and paths_per_s, not as end-to-end metrics.
	samples := map[string]summary{
		"setup_s": summarize(setup), "cert_s": summarize(certs), "sweep_s": summarize(sweeps),
		"cpu_s": summarize(cpu), "peak_rss_mb": summarize(rss),
	}
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MB"},
	}, samples, nil
}
