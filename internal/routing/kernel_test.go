package routing

// Golden tests for the allocation-free enumeration kernel: the scratch
// kernel (appendPairPath) must produce exactly the paths of the
// straightforward three-chain composition, and steady-state
// enumeration must not allocate.

import (
	"fmt"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// kernelCatalog is the algorithm × depth table the golden tests sweep.
// DisconnectedFast has a=16, so k=3 alone would be 33M pair paths —
// capped at k=2 to keep the suite fast; the other algorithms run k=1..3.
func kernelCatalog() []struct {
	alg  *bilinear.Algorithm
	maxK int
} {
	return []struct {
		alg  *bilinear.Algorithm
		maxK int
	}{
		{bilinear.Strassen(), 3},
		{bilinear.Winograd(), 3},
		{bilinear.Classical(2), 3},
		{bilinear.DisconnectedFast(), 2},
	}
}

// TestPairPathEnumerationZeroAllocs pins the tentpole claim: with the
// scratch and path buffer warm, enumerating every pair path of G_k
// performs zero heap allocations.
func TestPairPathEnumerationZeroAllocs(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	ps := r.newPathScratch()
	var buf []cdag.V
	aK := r.powA[r.k]
	enumerate := func() {
		for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
			for in := int64(0); in < aK; in++ {
				ps.setIn(r, in)
				ps.setOut(r, 0)
				for out := int64(0); out < aK; out++ {
					if out != 0 {
						ps.advanceOut(r)
					}
					buf = r.appendPairPath(ps, side, in, out, buf[:0])
				}
			}
		}
	}
	enumerate() // warm the path buffer so growth is not billed below
	if allocs := testing.AllocsPerRun(5, enumerate); allocs != 0 {
		t.Fatalf("steady-state pair-path enumeration: %v allocs/run, want 0", allocs)
	}
}

// referencePairPath is the Lemma 4 path, composed the obvious
// way: slot digits extracted by division, three fresh AppendChain
// calls, the middle chain reversed, and both junctions dropped.
func referencePairPath(r *Router, side bilinear.Side, in, out int64) ([]cdag.V, bool) {
	n0 := int64(r.n0)
	var mid, junc int64
	for l := 0; l < r.k; l++ {
		e := in / r.powA[r.k-1-l] % r.a
		o := out / r.powA[r.k-1-l] % r.a
		i, j, oi, oj := e/n0, e%n0, o/n0, o%n0
		if side == bilinear.SideA {
			mid, junc = mid*r.a+i*n0+oj, junc*r.a+j*n0+oj // c_ij′, b_jj′
		} else {
			mid, junc = mid*r.a+oi*n0+j, junc*r.a+oi*n0+i // c_i′j, a_i′i
		}
	}
	other := bilinear.SideB
	if side == bilinear.SideB {
		other = bilinear.SideA
	}
	c1, ok1 := r.AppendChain(side, in, mid, nil)
	c2, ok2 := r.AppendChain(other, junc, mid, nil)
	c3, ok3 := r.AppendChain(other, junc, out, nil)
	path := c1
	for i := len(c2) - 2; i >= 0; i-- {
		path = append(path, c2[i])
	}
	return append(path, c3[1:]...), ok1 && ok2 && ok3
}

// TestPairPathMatchesSeedKernel compares the scratch kernel's output
// vertex-by-vertex against the reference composition for every pair
// path of every catalog algorithm at every depth.
func TestPairPathMatchesSeedKernel(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			r.ForEachPairPath(func(side bilinear.Side, in, out int64, path []cdag.V) {
				ref, ok := referencePairPath(r, side, in, out)
				if !ok {
					t.Fatalf("%s k=%d (side %v, in %d, out %d): a reference chain is not guaranteed",
						c.alg.Name, k, side, in, out)
				}
				if len(ref) != len(path) {
					t.Fatalf("%s k=%d (side %v, in %d, out %d): scratch len %d, reference len %d",
						c.alg.Name, k, side, in, out, len(path), len(ref))
				}
				for i := range ref {
					if ref[i] != path[i] {
						t.Fatalf("%s k=%d (side %v, in %d, out %d): vertex %d: scratch %s, reference %s",
							c.alg.Name, k, side, in, out, i,
							r.G.Label(path[i]), r.G.Label(ref[i]))
					}
				}
			})
		}
	}
}

// TestGuaranteedChainEnumerationMatchesSeed checks that the direct
// free-digit enumeration of ForEachGuaranteedChain visits exactly the
// chains the seed's filter loop visited — same (side, in, out)
// sequence, same chain vertices, same order.
func TestGuaranteedChainEnumerationMatchesSeed(t *testing.T) {
	type rec struct {
		side  bilinear.Side
		in    int64
		out   int64
		chain string
	}
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			// Seed enumeration: test all aᵏ×aᵏ pairs, keep guaranteed ones.
			var want []rec
			var buf []cdag.V
			for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
				for in := int64(0); in < r.powA[r.k]; in++ {
					for out := int64(0); out < r.powA[r.k]; out++ {
						var ok bool
						buf, ok = r.AppendChain(side, in, out, buf[:0])
						if ok {
							want = append(want, rec{side, in, out, fmt.Sprint(buf)})
						}
					}
				}
			}
			var got []rec
			r.ForEachGuaranteedChain(func(side bilinear.Side, in, out int64, chain []cdag.V) {
				got = append(got, rec{side, in, out, fmt.Sprint(chain)})
			})
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d chains enumerated, want %d", c.alg.Name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d chain %d:\ngot  %+v\nwant %+v", c.alg.Name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestChainUsageDenseCounters exercises the dense-counter rewrite of
// VerifyChainUsage across the catalog (the seed used per-pair slice
// allocations and map counters) and checks chainOut round-trips the
// index encoding it reports errors through.
func TestChainUsageDenseCounters(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= min(c.maxK, 2); k++ {
			r := mustRouter(t, c.alg, k)
			if err := r.VerifyChainUsage(); err != nil {
				t.Fatalf("%s k=%d: %v", c.alg.Name, k, err)
			}
			// chainOut must invert the (in, free) index: the chain it
			// names must be guaranteed and have the free digits it was
			// derived from.
			for in := int64(0); in < r.powA[r.k]; in++ {
				for free := int64(0); free < r.powN[r.k]; free++ {
					outA := r.chainOut(bilinear.SideA, in, free)
					if _, ok := r.AppendChain(bilinear.SideA, in, outA, nil); !ok {
						t.Fatalf("%s k=%d: chainOut(A, %d, %d) = %d is not guaranteed", c.alg.Name, k, in, free, outA)
					}
					outB := r.chainOut(bilinear.SideB, in, free)
					if _, ok := r.AppendChain(bilinear.SideB, in, outB, nil); !ok {
						t.Fatalf("%s k=%d: chainOut(B, %d, %d) = %d is not guaranteed", c.alg.Name, k, in, free, outB)
					}
				}
			}
		}
	}
}
