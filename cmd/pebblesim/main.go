// Command pebblesim runs the red-blue pebble-game simulator on the CDAG
// G_r of a catalog algorithm and reports the measured I/O next to the
// paper's bounds.
//
// Usage:
//
//	pebblesim [-alg strassen] [-r 5] [-m 64] [-policy min] [-schedule dfs]
//	          [-debugaddr :8080] [-debughold 0]
//	pebblesim -sweep   # sweep M for the chosen graph and schedule
//
// With -debugaddr, a debug HTTP server exposes Prometheus-format
// /metrics (per-segment I/O histogram, read/write totals) and
// /debug/pprof; -debughold keeps it up after the run for scraping.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/bounds"
	"pathrouting/internal/cdag"
	"pathrouting/internal/obs"
	"pathrouting/internal/pebble"
	"pathrouting/internal/schedule"
)

var (
	algName   = flag.String("alg", "strassen", "algorithm name from the catalog")
	r         = flag.Int("r", 5, "recursion depth (n = n0^r)")
	m         = flag.Int("m", 64, "cache size in words")
	policy    = flag.String("policy", "min", "replacement policy: min, lru, fifo")
	schedKind = flag.String("schedule", "dfs", "schedule: dfs, rank, random")
	sweep     = flag.Bool("sweep", false, "sweep cache sizes")
	seed      = flag.Int64("seed", 1, "seed for the random schedule")
	debugAddr = flag.String("debugaddr", "", "serve /metrics and /debug/pprof on this address (e.g. :8080)")
	debugHold = flag.Duration("debughold", 0, "with -debugaddr: keep the debug server up this long after the run")
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	alg, err := bilinear.ByName(*algName)
	if err != nil {
		fail(err)
	}
	g, err := cdag.New(alg, *r)
	if err != nil {
		fail(err)
	}
	var sched []cdag.V
	switch *schedKind {
	case "dfs":
		sched = schedule.RecursiveDFS(g)
	case "rank":
		sched = schedule.RankByRank(g)
	case "random":
		sched, err = schedule.RandomTopological(g, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown schedule %q", *schedKind))
	}
	var pol pebble.Policy
	switch strings.ToLower(*policy) {
	case "min":
		pol = pebble.MIN
	case "lru":
		pol = pebble.LRU
	case "fifo":
		pol = pebble.FIFO
	default:
		fail(fmt.Errorf("unknown policy %q", *policy))
	}

	reg := obs.NewRegistry()
	in := pebble.NewInstruments(reg)
	if *debugAddr != "" {
		srv, err := obs.StartServer(*debugAddr, reg, nil)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on %s\n", srv.URL())
		if *debugHold > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "debug server held for %v\n", *debugHold)
				time.Sleep(*debugHold)
			}()
		}
	}

	n := math.Pow(float64(alg.N0), float64(*r))
	fmt.Printf("%s G_%d: %d vertices, n = %.0f, schedule %s, policy %s\n",
		alg.Name, *r, g.NumVertices(), n, *schedKind, *policy)
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s %-10s\n", "M", "reads", "writes", "IO", "Thm1 LB", "IO/LB")

	ms := []int{*m}
	if *sweep {
		ms = nil
		for mm := 8; float64(mm) <= 2*n*n; mm *= 2 {
			ms = append(ms, mm)
		}
	}
	for _, mm := range ms {
		res, err := (&pebble.Simulator{G: g, M: mm, P: pol, Obs: in}).Run(sched)
		if err != nil {
			fmt.Printf("%-8d %v\n", mm, err)
			continue
		}
		lb := bounds.Theorem1Sequential(alg.Omega0(), n, float64(mm))
		fmt.Printf("%-8d %-12d %-12d %-12d %-12.0f %-10.2f\n",
			mm, res.Reads, res.Writes, res.IO(), lb, float64(res.IO())/lb)
	}
}
