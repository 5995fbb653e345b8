package routing

// Unit tests for the hitVec block helpers the stage-2 orbit kernel
// accumulates member progressions through: addBlock must match count
// individual adds on consecutive counters, bumpStride count individual
// bumps spaced stride apart, and neither may touch a counter outside
// its progression.

import (
	"testing"

	"pathrouting/internal/cdag"
)

func TestHitVecAddBlock(t *testing.T) {
	got := make(hitVec, 16)
	want := make(hitVec, 16)
	for i := range got {
		got[i] = int64(i) // nonzero background to catch overwrites
		want[i] = int64(i)
	}
	got.addBlock(cdag.V(3), 5, 7)
	for i := 0; i < 5; i++ {
		want[3+i] += 7
	}
	got.addBlock(cdag.V(15), 1, 2) // single-element block at the tail
	want[15] += 2
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("counter %d: got %d, want %d", v, got[v], want[v])
		}
	}
}

func TestHitVecBumpStride(t *testing.T) {
	got := make(hitVec, 32)
	want := make(hitVec, 32)
	got.bumpStride(cdag.V(2), 3, 5) // hits 2, 5, 8, 11, 14
	for i := 0; i < 5; i++ {
		want[2+3*i]++
	}
	got.bumpStride(cdag.V(31), 4, 1) // count 1: stride must not matter
	want[31]++
	got.bumpStride(cdag.V(20), 1, 3) // stride 1 degenerates to addBlock n=1
	want.addBlock(cdag.V(20), 3, 1)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("counter %d: got %d, want %d", v, got[v], want[v])
		}
	}
}
