package graph

// DegreeOrder returns a relabeled copy of g under the Schank–Wagner
// degree-based heuristic: id(u) ≺ id(v) if degree(u) < degree(v), ties
// broken by original id for determinism. High-degree vertices receive high
// ids, shrinking |n≻(v)| for hubs and with it the Eq. 3 intersection cost.
// The second return value maps new id → original id.
func DegreeOrder(g *Graph) (*Graph, []VertexID) {
	n := g.NumVertices()
	deg := make([]uint32, n)
	for v := range deg {
		deg[v] = uint32(g.Degree(VertexID(v)))
	}
	perm := RankByDegree(deg)    // perm[rank] = original id
	newID := make([]VertexID, n) // newID[original] = rank
	for rank, orig := range perm {
		newID[orig] = VertexID(rank)
	}
	return Relabel(g, newID), perm
}

// RankByDegree returns the vertices in ascending (deg[v], v) order:
// element r is the vertex of rank r under the Schank–Wagner ordering. It is
// a stable counting sort by degree, one 16-bit digit at a time (a second
// pass only when some degree reaches 2¹⁶), so it needs O(n) memory whatever
// the degrees are; the streaming store builder calls it with degrees that
// count repeated input edges.
func RankByDegree(deg []uint32) []VertexID {
	perm := make([]VertexID, len(deg))
	for v := range perm {
		perm[v] = VertexID(v)
	}
	var maxDeg uint32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	tmp := make([]VertexID, len(deg))
	count := make([]int, min(maxDeg, 1<<16-1)+1)
	for shift := 0; shift < 32 && maxDeg>>shift != 0; shift += 16 {
		clear(count)
		for _, v := range perm {
			count[deg[v]>>shift&(1<<16-1)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, v := range perm {
			d := deg[v] >> shift & (1<<16 - 1)
			tmp[count[d]] = v
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm
}

// Relabel returns a copy of g with vertex v renamed to newID[v].
// newID must be a permutation of [0, n).
//
// The lists are filled in ascending order of the new ids, each vertex
// appending its new id to the lists of its neighbours, so every list comes
// out sorted without a per-list sort.
func Relabel(g *Graph, newID []VertexID) *Graph {
	n := g.NumVertices()
	old := make([]VertexID, n) // old[newID[v]] = v
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		old[newID[v]] = VertexID(v)
		offsets[newID[v]+1] = int64(g.Degree(VertexID(v)))
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]uint32, offsets[n])
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	for nv, v := range old {
		for _, w := range g.Neighbors(v) {
			nw := newID[w]
			adj[fill[nw]] = VertexID(nv)
			fill[nw]++
		}
	}
	return &Graph{offsets: offsets, adj: adj}
}

// RandomOrder relabels g by the given permutation source, used by the
// ordering ablation. perm[v] gives the new id of original vertex v; it must
// be a permutation of [0, n).
func RandomOrder(g *Graph, perm []VertexID) *Graph {
	return Relabel(g, perm)
}

// IsDegreeOrdered reports whether ids are non-decreasing in degree, the
// invariant established by DegreeOrder.
func IsDegreeOrdered(g *Graph) bool {
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) < g.Degree(VertexID(v-1)) {
			return false
		}
	}
	return true
}
