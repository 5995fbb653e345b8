package routing

// FuzzOrbitStatsEquivalence is the randomized arm of the orbit golden
// suite: where TestOrbitStatsBitIdentical sweeps the fixed catalog,
// this draws algorithms from the symmetry orbit of Strassen's (fresh
// coefficient structure and copying patterns every seed) and asserts
// that full enumeration and the orbit kernel produce bit-identical
// Stats across depths, worker counts, and adjacency sample strides. Under plain `go test` only the
// seed corpus runs; `go test -fuzz=FuzzOrbitStatsEquivalence` explores
// further.

import (
	"math/rand"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

func FuzzOrbitStatsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(42), uint8(2), uint8(3), uint8(2))
	f.Add(int64(2024), uint8(1), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kSel, workerSel, strideSel uint8) {
		k := 1 + int(kSel%2)            // random base algorithms have a=7; k=2 is already 4802 paths
		workers := 1 + int(workerSel%4) // 1..4
		stride := []int64{0, 1, 3, 257}[strideSel%4]
		rng := rand.New(rand.NewSource(seed))
		alg, err := bilinear.RandomAlgorithm(rng, nil)
		if err != nil {
			t.Skipf("degenerate orbit sample: %v", err)
		}
		g, err := cdag.New(alg, k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(g)
		if err != nil {
			t.Fatalf("matching: %v", err)
		}
		r.AdjacencySampleStride = stride
		want, err := r.VerifyFullRouting()
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		ro := orbitRouter(t, r)
		got, err := ro.VerifyFullRouting()
		if err != nil {
			t.Fatalf("orbit seq: %v", err)
		}
		if !sameStats(got, want) {
			t.Fatalf("sequential (k=%d stride=%d):\norbit %+v\nfull  %+v", k, stride, got, want)
		}
		par, err := ro.VerifyFullRoutingParallel(workers)
		if err != nil {
			t.Fatalf("orbit workers=%d: %v", workers, err)
		}
		if !sameStats(par, want) {
			t.Fatalf("workers=%d (k=%d stride=%d):\norbit %+v\nfull  %+v", workers, k, stride, par, want)
		}
	})
}
