package routing

// The orbit kernel behind Router.OrbitReduction: it collapses the
// aᵏ-fold redundancy of pair-path enumeration with Stats bit-identical
// to the full-enumeration oracle (scanRows) at any k and worker count.
//
// Orbits. A Lemma 4 pair path for (side A, input a_ij, output c_i′j′)
// composes three guaranteed-dependence chains
//
//	a_ij → c_ij′   (chain 1),   b_jj′ → c_ij′  (chain 2, reversed),
//	b_jj′ → c_i′j′ (chain 3),
//
// and chains 1 and 2 do not depend on the output row multi-index i′.
// The n₀ᵏ paths of a (side, input) row that share the output column
// multi-index j′ — an *orbit* — therefore share chains 1 and 2
// pointwise; only chain 3 varies. The B-side mirror fixes i′ and frees
// j′. The chain construction is slot-wise, so a coordinate in no slot
// of a chain's definition cannot change it. A row's n₀ᵏ orbits form a
// *family*. Exactness against scanRows, field by field:
//
//   - NumPaths, TotalHits: every member is counted once, and a valid
//     path has 3(2k+2)-2 vertices.
//   - Vertex hits: a path bumps c1, c2 minus its final junction, and
//     c3 minus its leading junction. Hits are additive, so crediting
//     the shared part once with weight n₀ᵏ and c3 per member is the
//     same sum — also for members whose c3 retraces c2 (mid = out),
//     which both parts touch, as the full scan does on that path.
//   - Meta-vertex hits: a path credits each distinct meta root once.
//     Roots of c1 ∪ c2 are credited with weight n₀ᵏ and stamped with
//     the orbit's serial; roots of c3 are credited per member unless
//     stamped. Within a chain equal roots are consecutive (a rank-j
//     encoding vertex roots to the vertex at its last non-trivial rank
//     ≤ j, monotone in j; decoding vertices are their own roots), so
//     one previous-root comparison dedups c3.
//   - AdjacencyChecked: the same positions idx % stride == 0 of the
//     sequential order are sampled, materialized through the same
//     appendPairPath kernel, and checked edge by edge.
//
// Family aggregation. Chains 1 and 2 are functions of the input and
// the fixed output digits, so their matched product digits, packed
// prefixes, and endpoint suffixes are maintained incrementally across
// the fixed-digit odometer (digit-local updates on carry), and each
// vertex is synthesized as layerBase + prefix·aᵏ⁻ʲ + suffix: no
// AppendChain and no divisions per orbit. Length and endpoint checks
// of synthesized chains would be tautologies; a corrupt matching is
// caught by the sampled edge checks (TestOrbitRejectsCorruptMatching).
//
// Blocked accumulation. The last free output digit only enters chain
// 3's product digit k, so a *block* of n₀ members sharing the leading
// k−1 free digits has block-constant encoding ranks 1..k−1 (credited
// once with weight n₀), rank-j decoding vertices in an arithmetic
// progression of stride 1 or n₀ (hitVec.addBlock / bumpStride), and
// only the rank-k encoding vertex and the product as per-member work.
// Meta hits split the same way: the progression's credit is the same
// strided add minus the members that hit a stamped shared-chain
// decoding vertex d1[j] or d2[j] (one membership test each); the
// rank-k encoding root keeps the consecutive-root dedup, and a product
// is stamped iff it is one of the two shared-chain products.
//
// Checkpoint shards (whole rows) therefore receive bit-identical
// contributions in either mode and resume under the other. On a
// corrupted routing both modes reject, but the first error reported
// can differ: the orbit scan visits a row's paths grouped by orbit.

import (
	"fmt"
	"sync/atomic"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// scanRowsOrbit2 is scanRows with orbit reduction, family-aggregated
// shared chains, and blocked member accumulation: same row ranges, same
// accumulators, bit-identical statistics.
func (r *Router) scanRowsOrbit2(w *worker, rowLo, rowHi int64, earliestErr *atomic.Int64) {
	g := r.G
	k := r.k
	aK := r.powA[k]
	n0 := int64(r.n0)
	n0K := r.powN[k]
	chainLen := 2*k + 2
	wantLen := 3*chainLen - 2
	stride := r.adjStride()
	metaRoots := g.MetaRoots()
	ps := w.ps
	hits, metaHits := w.hits, w.metaHits

	// All per-slot and per-rank synthesis state in one backing array.
	// Per slot l: the input digit, the fixed-digit-independent parts of
	// the mid/junction digits, the maintained mid/junction/output digits
	// and match rows, and the three chains' matched product digits.
	// Per rank j: packed product-digit prefixes, base-a endpoint
	// suffixes, the shared chains' decoding vertices (the stamped
	// candidates the blocked meta pass subtracts), and the layer bases.
	state := make([]int64, 10*k+12*(k+1))
	cut := func(n int) []int64 {
		s := state[:n:n]
		state = state[n:]
		return s
	}
	inDig, mBase, jcBase := cut(k), cut(k), cut(k)
	mDig, jcDig, eRow, oDig := cut(k), cut(k), cut(k), cut(k)
	t1Dig, t2Dig, t3Dig := cut(k), cut(k), cut(k)
	t1Pre, t2Pre, t3Pre := cut(k+1), cut(k+1), cut(k+1)
	inSuf, midSuf, jcSuf, outSuf := cut(k+1), cut(k+1), cut(k+1), cut(k+1)
	d1, d2 := cut(k+1), cut(k+1)
	enc1Base, enc3Base, decBase := cut(k+1), cut(k+1), cut(k+1)

	// w.stamp[root] holds the serial of the last orbit whose shared
	// chains credited root: the O(1) "already counted for every member of
	// this orbit" test. Serials only grow, across all of the worker's
	// shards, and 0 is never used, so the zeroed vector starts clean and
	// is never cleared.
	stamp := w.stamp
	var serial int64
	credit := func(v cdag.V) {
		hits[v] += n0K
		if root := metaRoots[v]; stamp[root] != serial {
			stamp[root] = serial
			metaHits[root] += n0K
		}
	}

	for row := rowLo; row < rowHi; row++ {
		// Cooperative cancellation at row granularity, as in scanRows.
		if earliestErr.Load() < row*aK {
			return
		}
		side, in := r.rowOf(row)
		ps.setIn(r, in)
		w.families++
		// Orbit geometry: side A fixes the output column digits (unit
		// scale in the packed digit) and frees the row digits (·n₀);
		// side B the mirror image. Chain 1 lives in the side's encoding
		// graph, chains 2 and 3 in the other side's.
		fixedD, freeD := ps.ojD, ps.oiD
		fixedScale, freeScale := int64(1), n0
		kind1, match1 := cdag.EncA, r.BM.matchA
		kind3, match3 := cdag.EncB, r.BM.matchB
		if side == bilinear.SideB {
			fixedD, freeD = ps.oiD, ps.ojD
			fixedScale, freeScale = n0, 1
			kind1, match1 = cdag.EncB, r.BM.matchB
			kind3, match3 = cdag.EncA, r.BM.matchA
		}
		for j := 0; j <= k; j++ {
			enc1Base[j] = int64(g.LayerBase(kind1, j))
			enc3Base[j] = int64(g.LayerBase(kind3, j))
			decBase[j] = int64(g.LayerBase(cdag.Dec, j))
		}
		prodBase := decBase[0]
		encKBase := enc3Base[k]
		// Row constants: the input digits and the parts of the mid and
		// junction digits the fixed digit does not contribute — mid is
		// c_{i,j′} / c_{i′,j}, junction b_{j,j′} / a_{i′,i}, so per slot
		// mDig = mBase + fixed·scale and jcDig = jcBase + fixed·scale.
		for l := 0; l < k; l++ {
			fixedD[l] = 0
			freeD[l] = 0
			inDig[l] = ps.iD[l]*n0 + ps.jD[l]
			if side == bilinear.SideA {
				mBase[l] = ps.iD[l] * n0
				jcBase[l] = ps.jD[l] * n0
			} else {
				mBase[l] = ps.jD[l]
				jcBase[l] = ps.iD[l]
			}
		}
		for j := 1; j <= k; j++ {
			inSuf[j] = inDig[k-j]*r.powA[j-1] + inSuf[j-1]
		}
		fsMod := freeScale % stride

		for orbit := int64(0); orbit < n0K; orbit++ {
			// Fixed-digit odometer; slots l0..k-1 changed this step.
			l0 := 0
			if orbit != 0 {
				l := k - 1
				for ; l >= 0; l-- {
					if fixedD[l]++; fixedD[l] < n0 {
						break
					}
					fixedD[l] = 0
				}
				l0 = l
			}
			// Family aggregation: refresh only the changed slots' digit
			// state and matched product digits of all three chains, then
			// the downstream packed prefixes — amortized O(1) per orbit,
			// no AppendChain, no divisions.
			for l := l0; l < k; l++ {
				fd := fixedD[l] * fixedScale
				m := mBase[l] + fd
				jc := jcBase[l] + fd
				mDig[l] = m
				jcDig[l] = jc
				eRow[l] = jc * r.a
				oDig[l] = fd
				t1 := match1[int(inDig[l]*r.a+m)]
				t2 := match3[int(jc*r.a+m)]
				t3 := match3[int(jc*r.a+fd)]
				if t1 < 0 || t2 < 0 || t3 < 0 {
					panic("routing: orbit shared chains must be guaranteed")
				}
				t1Dig[l], t2Dig[l], t3Dig[l] = int64(t1), int64(t2), int64(t3)
			}
			for j := l0 + 1; j <= k; j++ {
				t1Pre[j] = t1Pre[j-1]*r.b + t1Dig[j-1]
				t2Pre[j] = t2Pre[j-1]*r.b + t2Dig[j-1]
			}
			// Endpoint suffixes (slot k-1 changes every orbit, so these
			// are O(k) regardless), and the block-0 packed output.
			var blockOut int64
			for j := 1; j <= k; j++ {
				midSuf[j] = mDig[k-j]*r.powA[j-1] + midSuf[j-1]
				jcSuf[j] = jcDig[k-j]*r.powA[j-1] + jcSuf[j-1]
				blockOut = blockOut*r.a + oDig[j-1]
			}
			w.serial++
			serial = w.serial
			w.orbits++
			t1Full, t2Full := t1Pre[k], t2Pre[k]
			// Weighted shared-chain credits, synthesized in chain order:
			// chain 1 whole (enc 0..k, product, dec 1..k), chain 2 minus
			// its final junction vertex (enc 0..k, product, dec 1..k-1).
			for j := 0; j <= k; j++ {
				credit(cdag.V(enc1Base[j] + t1Pre[j]*r.powA[k-j] + inSuf[k-j]))
			}
			credit(cdag.V(prodBase + t1Full))
			for j := 1; j <= k; j++ {
				d1[j] = decBase[j] + t1Pre[k-j]*r.powA[j] + midSuf[j]
				credit(cdag.V(d1[j]))
			}
			for j := 0; j <= k; j++ {
				credit(cdag.V(enc3Base[j] + t2Pre[j]*r.powA[k-j] + jcSuf[k-j]))
			}
			credit(cdag.V(prodBase + t2Full))
			for j := 1; j < k; j++ {
				d2[j] = decBase[j] + t2Pre[k-j]*r.powA[j] + midSuf[j]
				credit(cdag.V(d2[j]))
			}
			for j := 1; j < k; j++ {
				t3Pre[j] = t3Pre[j-1]*r.b + t3Dig[j-1]
			}

			// Blocked member scan: the outer odometer walks the leading
			// k-1 free digits; each block is the n₀ members differing
			// only in the last free digit.
			span := n0 * freeScale
			base3Row := eRow[k-1]
			for {
				// Block-constant encoding ranks 1..k-1, weight n₀ each;
				// rPrev ends as the rank-(k-1) root for the per-member
				// consecutive-root dedup (V(-1) when k = 1: no rank below
				// k to repeat).
				rPrev := cdag.V(-1)
				for j := 1; j < k; j++ {
					v := cdag.V(enc3Base[j] + t3Pre[j]*r.powA[k-j] + jcSuf[k-j])
					hits[v] += n0
					root := metaRoots[v]
					if root != rPrev && stamp[root] != serial {
						metaHits[root] += n0
					}
					rPrev = root
				}
				// Output suffixes of the block's first member.
				for j := 1; j <= k; j++ {
					outSuf[j] = oDig[k-j]*r.powA[j-1] + outSuf[j-1]
				}
				// Decoding ranks 1..k: one arithmetic progression per
				// rank, accumulated blockwise on both vectors, with the
				// orbit-stamped candidates subtracted from the meta pass
				// by a progression-membership test.
				for j := 1; j <= k; j++ {
					start := decBase[j] + t3Pre[k-j]*r.powA[j] + outSuf[j]
					sv := cdag.V(start)
					if freeScale == 1 {
						hits.addBlock(sv, r.n0, 1)
						metaHits.addBlock(sv, r.n0, 1)
					} else {
						hits.bumpStride(sv, freeScale, r.n0)
						metaHits.bumpStride(sv, freeScale, r.n0)
					}
					if d := d1[j] - start; d >= 0 && d < span && d%freeScale == 0 {
						metaHits[d1[j]]--
					}
					if j < k && d2[j] != d1[j] {
						if d := d2[j] - start; d >= 0 && d < span && d%freeScale == 0 {
							metaHits[d2[j]]--
						}
					}
				}
				// Per-member scalar remainder: product digit k from the
				// match row, one rank-k encoding bump, one product bump,
				// and the additive sample-position tracker (idx % stride
				// == 0 over idx = row·aᵏ + out, no per-member modulo).
				base3 := base3Row + oDig[k-1]
				tHi := t3Pre[k-1] * r.b
				m := (row*aK + blockOut) % stride
				for i := int64(0); i < n0; i++ {
					t := tHi + int64(match3[int(base3+i*freeScale)])
					hits[encKBase+t]++
					hits[prodBase+t]++
					rk := metaRoots[encKBase+t]
					if rk != rPrev && stamp[rk] != serial {
						metaHits[rk]++
					}
					if t != t1Full && t != t2Full {
						metaHits[prodBase+t]++
					}
					if m == 0 {
						// Same sample as the full scan: sync the last
						// free digit, materialize through the composition
						// kernel, check edge by edge.
						w.adjChecked++
						outIdx := blockOut + i*freeScale
						freeD[k-1] = i
						full := r.appendPairPath(ps, side, in, outIdx, w.buf[:0])
						w.buf = full
						freeD[k-1] = 0
						if len(full) != wantLen {
							w.fail(row*aK+outIdx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): length %d, want %d",
								side, in, outIdx, len(full), wantLen), earliestErr)
							return
						}
						for x := 0; x+1 < len(full); x++ {
							if !g.Adjacent(full[x], full[x+1]) {
								w.fail(row*aK+outIdx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): not connected at %s -- %s",
									side, in, outIdx, g.Label(full[x]), g.Label(full[x+1])), earliestErr)
								return
							}
						}
					}
					if m += fsMod; m >= stride {
						m -= stride
					}
				}
				w.numPaths += n0
				w.totalHits += n0 * int64(wantLen)

				// Advance the block odometer; a full wrap (l < 0) also
				// restores freeD/oDig/t3Dig/blockOut to the orbit's base
				// state, which the next orbit's refresh builds on.
				l := k - 2
				for ; l >= 0; l-- {
					freeD[l]++
					blockOut += freeScale * r.powA[k-1-l]
					oDig[l] += freeScale
					if freeD[l] < n0 {
						t3Dig[l] = int64(match3[int(eRow[l]+oDig[l])])
						break
					}
					freeD[l] = 0
					blockOut -= n0 * freeScale * r.powA[k-1-l]
					oDig[l] -= n0 * freeScale
					t3Dig[l] = int64(match3[int(eRow[l]+oDig[l])])
				}
				if l < 0 {
					break
				}
				for j := l + 1; j < k; j++ {
					t3Pre[j] = t3Pre[j-1]*r.b + t3Dig[j-1]
				}
			}
			// Snapshot cadence at orbit granularity: an orbit is n₀ᵏ
			// paths, far below progressChunk, so checking here instead
			// of per member moves the cadence by at most one orbit.
			if w.observing {
				w.tick(w.orbits&progressClockMask == 0)
			}
		}
	}
}
