package routing

// Negative controls: each verifier must *fail* when the object it
// checks is corrupted. A checker that cannot reject a broken instance
// verifies nothing; these tests pin the rejection behaviour.

import (
	"slices"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// corruptMatching returns a Strassen base matching with one A-side
// dependency rerouted to a product that is NOT adjacent to it (no chain
// can exist through it).
func corruptMatching(t *testing.T) (*bilinear.Algorithm, *BaseMatching) {
	t.Helper()
	alg := bilinear.Strassen()
	bm, err := NewBaseMatching(alg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a guaranteed dep and a non-adjacent product.
	deps := GuaranteedBaseDeps(alg, bilinear.SideA)
	for _, d := range deps {
		adj := map[int]bool{}
		for _, p := range DepProducts(alg, bilinear.SideA, d[0], d[1]) {
			adj[p] = true
		}
		for p := 0; p < alg.B(); p++ {
			if !adj[p] {
				bm.matchA[d[0]*alg.A()+d[1]] = p
				return alg, bm
			}
		}
	}
	t.Fatal("no corruptible dependency found")
	return nil, nil
}

func TestCorruptMatchingRejectedByChainCheck(t *testing.T) {
	alg, bm := corruptMatching(t)
	g, err := cdag.New(alg, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouterWithMatching(g, bm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.VerifyGuaranteedRouting(); err == nil {
		t.Fatal("chain verification accepted a non-adjacent matching")
	}
}

func TestOverloadedMatchingRejectedByCapacityCheck(t *testing.T) {
	alg := bilinear.Strassen()
	bm, err := NewBaseMatching(alg)
	if err != nil {
		t.Fatal(err)
	}
	// Funnel three A-side deps into whatever product dep 0 uses.
	deps := GuaranteedBaseDeps(alg, bilinear.SideA)
	target := bm.MatchA(deps[0][0], deps[0][1])
	moved := 0
	for _, d := range deps[1:] {
		for _, p := range DepProducts(alg, bilinear.SideA, d[0], d[1]) {
			if p == target && bm.MatchA(d[0], d[1]) != target {
				bm.matchA[d[0]*alg.A()+d[1]] = target
				moved++
			}
		}
		if moved >= 2 {
			break
		}
	}
	if moved < 2 {
		t.Skip("could not overload a product on this matching")
	}
	if _, err := bm.VerifyCapacities(); err == nil {
		t.Fatal("capacity check accepted an overloaded matching")
	}
}

func TestSection8CheckerRejectsImpossibleBound(t *testing.T) {
	// Sanity that the value-class checker is a real inequality, not a
	// tautology: with k = 1 the bound is 6a and some class must be hit
	// close to it; shrinking the graph cannot push a class past the
	// bound, but the classical algorithm's input meta-vertices absorb
	// many paths — verify the checker actually counts > 0 loads.
	g, err := cdag.New(bilinear.Classical(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.VerifyValueClassRouting()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxMetaHits < 4 {
		t.Errorf("suspiciously low class load %d", st.MaxMetaHits)
	}
}

// TestRankInvariantRejectsTamperedProfile: the whole-run rank
// invariants hold on a real run and reject a profile that moved one
// hit, whether in a rank total or in the overall hit count.
func TestRankInvariantRejectsTamperedProfile(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	st, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	tampered := st
	tampered.Ranks = slices.Clone(st.Ranks)
	tampered.Ranks[3].Total++
	err = r.checkFullRoutingBounds(tampered)
	if err == nil || !strings.Contains(err.Error(), "rank invariant violated: rank 3 total") {
		t.Fatalf("tampered rank total: err = %v", err)
	}
	tampered = st
	tampered.TotalHits++
	err = r.checkFullRoutingBounds(tampered)
	if err == nil || !strings.Contains(err.Error(), "rank invariant violated: rank totals sum") {
		t.Fatalf("tampered total hits: err = %v", err)
	}
}
