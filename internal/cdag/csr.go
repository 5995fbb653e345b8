package cdag

// CSR adjacency index. Parents and children of a vertex are computed
// arithmetically in O(degree) (see AppendParents), which is ideal for
// one-shot traversals but makes membership queries — "is u a parent of
// v?" — allocate and scan a fresh edge slice per call. The routing
// verifiers ask that question for every edge of every sampled path, so
// the index materializes all parent edges once, in compressed sparse
// row form, and answers membership by scanning a short sorted row.
//
// The index is built lazily on first use and shared by every caller;
// building walks the graph once (O(|E|)) and stores one int32 per edge
// plus one int64 per vertex, which for every graph New admits (IDs fit
// int32) is a few hundred MB at the extreme and typically far less.

import "slices"

// buildAdjacency materializes the parent adjacency of every vertex in
// CSR form with each row sorted ascending.
func (g *Graph) buildAdjacency() {
	ptr := make([]int64, g.total+1)
	var buf []Edge
	for v := V(0); int64(v) < g.total; v++ {
		buf = g.AppendParents(v, buf[:0])
		ptr[v+1] = ptr[v] + int64(len(buf))
	}
	nbr := make([]V, ptr[g.total])
	for v := V(0); int64(v) < g.total; v++ {
		buf = g.AppendParents(v, buf[:0])
		row := nbr[ptr[v]:ptr[v+1]]
		for i, e := range buf {
			row[i] = e.To
		}
		slices.Sort(row)
	}
	g.parentPtr, g.parentNbr = ptr, nbr
}

// EnsureAdjacencyIndex builds the CSR adjacency index now instead of on
// the first HasEdge/Adjacent call. Call it before timing or before
// spawning workers so the one-time construction cost is paid up front
// (construction is safe under concurrent use either way).
func (g *Graph) EnsureAdjacencyIndex() { g.adjOnce.Do(g.buildAdjacency) }

// parentRowContains reports whether parent appears in v's CSR parent
// row. Rows are sorted and short (max in-degree is a base-graph
// constant), so a linear scan with early exit beats binary search.
func (g *Graph) parentRowContains(v, parent V) bool {
	row := g.parentNbr[g.parentPtr[v]:g.parentPtr[v+1]]
	for _, p := range row {
		if p >= parent {
			return p == parent
		}
	}
	return false
}

// HasEdge reports whether G has the directed edge parent → child, using
// the CSR index (built on first call).
func (g *Graph) HasEdge(parent, child V) bool {
	g.adjOnce.Do(g.buildAdjacency)
	return g.parentRowContains(child, parent)
}

// Adjacent reports whether u and v are joined by an edge in either
// direction — the undirected adjacency the routings care about (paths
// may traverse edges against their orientation).
func (g *Graph) Adjacent(u, v V) bool {
	g.adjOnce.Do(g.buildAdjacency)
	return g.parentRowContains(v, u) || g.parentRowContains(u, v)
}
