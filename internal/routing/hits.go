package routing

// hitVec accumulates per-vertex hit counts for a routing in int64.
//
// Width matters here: the quantities a verifier accumulates explode
// exponentially in k — the full routing has 2a²ᵏ paths of length
// 6k + 4, and a *broken* routing (exactly what verification must
// catch) can concentrate an arbitrary share of those hits on a single
// vertex. A 32-bit counter silently wraps past 2³¹ ≈ 2.1·10⁹,
// reporting a small or negative "maximum" and certifying a bound that
// is violated astronomically. Every verifier hit array therefore uses
// this type; TotalHits alone passes 10⁹ already at Strassen k = 6.

import "pathrouting/internal/cdag"

type hitVec []int64

// bump increments v's counter and returns the new value, so callers
// can track a running peak with `peak = max(peak, h.bump(v))`.
func (h hitVec) bump(v cdag.V) int64 {
	h[v]++
	return h[v]
}

// add increases v's counter by n and returns the new value — the
// weighted form of bump the orbit-reduced scan uses to credit a whole
// orbit's worth of hits to a shared-chain vertex at once.
func (h hitVec) add(v cdag.V, n int64) int64 {
	h[v] += n
	return h[v]
}

// addBlock adds n to count consecutive counters starting at v — the
// contiguous-progression form the orbit kernel uses to credit
// the rank-j chain vertices of a whole member block at once (the
// members' vertex IDs form an arithmetic progression; stride 1 on the
// side whose free output digit is the units part). The reslice hoists
// the bounds check out of the loop, so the body is a plain
// autovectorizable add.
func (h hitVec) addBlock(v cdag.V, count int, n int64) {
	s := h[v : int64(v)+int64(count)]
	for i := range s {
		s[i] += n
	}
}

// bumpStride increments count counters spaced stride apart starting at
// v — the strided form of addBlock for the mirror side, whose free
// output digit carries weight n₀ in the packed index.
func (h hitVec) bumpStride(v cdag.V, stride int64, count int) {
	s := h[int64(v) : int64(v)+stride*int64(count-1)+1]
	for i, x := 0, int64(0); i < count; i, x = i+1, x+stride {
		s[x]++
	}
}

// max returns the largest counter (0 for an empty vector).
func (h hitVec) max() int64 {
	var m int64
	for _, c := range h {
		if c > m {
			m = c
		}
	}
	return m
}

// merge adds other into h element-wise.
func (h hitVec) merge(other hitVec) {
	for v, c := range other {
		h[v] += c
	}
}
