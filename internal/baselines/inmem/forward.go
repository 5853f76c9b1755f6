package inmem

import (
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
)

// ForwardCount implements the compact-forward algorithm (Latapy, TCS 2008
// — reference [24] of the paper): vertices are processed in id order while
// growing per-vertex prefix lists A(v) ⊆ n≺(v); for every edge (u, v) with
// u ≺ v, the triangles through it with both other corners already
// processed are |A(u) ∩ A(v)|. Each triangle Δxyz is found exactly once,
// when its highest-ordered edge (y, z) is processed: both A-lists then
// contain x. Under the degree ordering it matches EdgeIterator≻'s O(α|E|)
// bound with a smaller working set.
func ForwardCount(g *graph.Graph, emit Emit, cost *Cost) int64 {
	n := g.NumVertices()
	a := make([][]uint32, n) // A(v): processed neighbors of v with lower id
	var total int64
	var buf []uint32
	for ui := 0; ui < n; ui++ {
		u := graph.VertexID(ui)
		for _, v := range g.NeighborsAfter(u) {
			au, av := a[u], a[v]
			cost.add(intersect.MinCost(au, av))
			buf = intersect.Adaptive(buf[:0], au, av)
			if len(buf) > 0 {
				total += int64(len(buf))
				if emit != nil {
					// buf holds the lowest corners x of triangles Δxuv.
					for _, x := range buf {
						emit(x, uint32(u), []uint32{v})
					}
				}
			}
			// u is now processed: it joins A(v) (ids arrive in order, so
			// A(v) stays sorted).
			a[v] = append(a[v], uint32(u))
		}
	}
	return total
}
