// Command perfbench is the repository's end-to-end benchmark: it drives
// routecheck and routed as child processes from one client, checks
// every certificate they return against the closed forms and the
// oracle lines pinned in expected.json, and prints one JSON result.
//
// Run it through run.sh from the repository root, which builds the
// programs and this harness from the checkout first (building is not
// timed):
//
//	bash perfbench/run.sh --workload cli-k5 --seed 1 --seconds 35 --trace 0
//
// Workloads (closed loops, one request in flight):
//
//	cli-k5   routecheck -alg strassen -k 5 -orbits -workers 1, exec to exit
//	job-k6   routed job {"alg":"strassen","k":6,"orbits":true}, POST to final SSE event
//	catalog  six cold routed jobs over n₀ = 2, 3, 4 in a seeded order, with
//	         cache-hit resubmissions interleaved at seeded points
//
// --trace 0 prints the end-to-end metrics (setup_s, cpu_s,
// peak_rss_mb). The line before them holds the environment stamp and
// the distributions of certificate and sweep times, which move with
// the CPU time a shared host steals (steal_frac) too much to gate on.
// --trace 1 prints the per-layer metrics instead: it computes the same
// certificates in process through each layer's public functions,
// records spans around those calls, and writes them with their self
// times to .bench_build/perfbench/trace-<workload>-<seed>.json.
//
// `bash perfbench/run.sh -pin` reruns the full-enumeration oracle
// (routecheck -orbits=false) on every spec and rewrites expected.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: cli-k5, job-k6 or catalog")
		seed    = flag.Int64("seed", 1, "workload seed (catalog submission order and hit placement)")
		seconds = flag.Int("seconds", 35, "measuring time")
		trace   = flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
		root    = flag.String("root", ".", "repository checkout")
		binDir  = flag.String("bin", "", "directory holding the built routecheck and routed")
		pin     = flag.Bool("pin", false, "rewrite expected.json from the full-enumeration oracle and exit")
	)
	flag.Parse()
	out := filepath.Join(*root, ".bench_build", "perfbench")
	expected := filepath.Join(*root, "perfbench", "expected.json")
	routecheck := filepath.Join(*binDir, "routecheck")
	if *pin {
		return pinOracle(routecheck, expected)
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	pins, err := loadPinned(expected)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{
		w: *w, routecheck: routecheck, routed: filepath.Join(*binDir, "routed"),
		work: work, pins: pins, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		jobWorkers: min(2, runtime.NumCPU()),
	}
	steal0, total0 := cpuTicks()
	var (
		metrics map[string]metric
		samples map[string]summary
		t       *tracer
	)
	if *trace == 1 {
		t = &tracer{t0: time.Now()}
		metrics, err = b.traced(t)
	} else {
		metrics, samples, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	steal1, total1 := cpuTicks()
	// The stamp builds every graph of the workload to size its hit
	// vectors, so it runs after the measurement, not during it.
	env, err := stamp(*root, b, *trace == 1)
	if err != nil {
		return err
	}
	if total1 > total0 {
		env.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if t != nil {
		if err := writeTrace(filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", w.name, *seed)), env, t.spans); err != nil {
			return err
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (every request failed?)", name)
		}
	}
	line, err := json.Marshal(struct {
		Env     envStamp           `json:"env"`
		Samples map[string]summary `json:"samples,omitempty"`
	}{env, samples})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeTrace writes the run's spans, and self times by span name
// computed from them, with the environment stamp and the layer map.
func writeTrace(path string, env envStamp, spans []span) error {
	self := selfTimes(spans)
	body, err := json.MarshalIndent(struct {
		Env    envStamp           `json:"env"`
		Layers []layer            `json:"layers"`
		Self   map[string]float64 `json:"self_s"`
		Spans  []span             `json:"spans"`
	}{env, layers, self, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "self %-20s %10.4f s\n", n, self[n])
	}
	fmt.Fprintln(os.Stderr, "spans written to", path)
	return nil
}

// pinOracle runs the full-enumeration oracle on every spec the
// workloads check and writes their certificate lines.
func pinOracle(routecheck, path string) error {
	all := append([]spec{setupSpec, cliSpec, jobSpec}, catalogSpecs...)
	p := pinned{}
	for _, s := range all {
		args := []string{"-alg", s.Alg, "-k", fmt.Sprint(s.K), "-orbits=false"}
		r, err := runCLI(routecheck, args...)
		if err != nil {
			return err
		}
		line, err := statsLine(r.Stdout)
		if err != nil {
			return err
		}
		line = strings.TrimPrefix(line, "stats: ")
		c, err := parseCert(line)
		if err == nil {
			err = checkClosedForms(s, c)
		}
		if err != nil {
			return err
		}
		p[s.key()] = line
		fmt.Fprintf(os.Stderr, "%-20s %s (%.1fs)\n", s.key(), line, r.Wall.Seconds())
	}
	body, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
