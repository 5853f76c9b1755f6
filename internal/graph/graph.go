// Package graph provides the in-memory graph substrate: a compressed
// sparse-row (CSR) adjacency structure for simple undirected graphs, the
// degree-based vertex relabeling heuristic of Schank & Wagner that all
// triangulation methods in the paper rely on, and network-analysis metrics
// (clustering coefficient, transitivity) computed from triangle counts.
//
// Vertex ids are dense uint32 values in [0, NumVertices). Adjacency lists
// are sorted ascending, contain no self-loops and no duplicates.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/optlab/opt/internal/radix"
)

// VertexID identifies a vertex after relabeling. The ordering of VertexIDs
// is the ≺ total order used by the iterator models.
type VertexID = uint32

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V VertexID
}

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	offsets []int64  // len = n+1
	adj     []uint32 // concatenated sorted adjacency lists
}

// ErrVertexRange reports a vertex id outside [0, NumVertices).
var ErrVertexRange = errors.New("graph: vertex id out of range")

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Degree returns |n(v)|.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list n(v). The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsAfter returns n≻(v): the suffix of n(v) with ids greater than v.
func (g *Graph) NeighborsAfter(v VertexID) []uint32 {
	n := g.Neighbors(v)
	i := sort.Search(len(n), func(i int) bool { return n[i] > v })
	return n[i:]
}

// NeighborsBefore returns n≺(v): the prefix of n(v) with ids less than v.
func (g *Graph) NeighborsBefore(v VertexID) []uint32 {
	n := g.Neighbors(v)
	i := sort.Search(len(n), func(i int) bool { return n[i] >= v })
	return n[:i]
}

// HasEdge reports whether (u, v) ∈ E.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if int(u) >= g.NumVertices() || int(v) >= g.NumVertices() {
		return false
	}
	n := g.Neighbors(u)
	i := sort.Search(len(n), func(i int) bool { return n[i] >= v })
	return i < len(n) && n[i] == v
}

// Edges calls fn once per undirected edge (u < v), in ascending (u, v)
// order. fn returning false stops the iteration.
func (g *Graph) Edges(fn func(u, v VertexID) bool) {
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.NeighborsAfter(VertexID(u)) {
			if !fn(VertexID(u), v) {
				return
			}
		}
	}
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > m {
			m = d
		}
	}
	return m
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d)", g.NumVertices(), g.NumEdges())
}

// Builder accumulates edges and produces a simplified Graph (sorted lists,
// duplicates and self-loops removed).
type Builder struct {
	n    int
	keys []uint64 // one u<<32 | v per AddEdge, u < v
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records an undirected edge. Self-loops are ignored. Duplicates
// are removed at Build time. It returns ErrVertexRange for out-of-range ids.
func (b *Builder) AddEdge(u, v VertexID) error {
	if int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("%w: (%d, %d) with n=%d", ErrVertexRange, u, v, b.n)
	}
	if u == v {
		return nil
	}
	if u > v {
		u, v = v, u
	}
	b.keys = append(b.keys, uint64(u)<<32|uint64(v))
	return nil
}

// NumPendingEdges returns the number of edge records accumulated so far
// (before deduplication).
func (b *Builder) NumPendingEdges() int { return len(b.keys) }

// Build produces the Graph. The Builder may be reused afterwards.
//
// The edges are kept as packed u<<32 | v keys with u < v; sorting and
// compacting the keys removes the duplicates, and one counting pass over
// the sorted keys fills the CSR arrays. Every list comes out sorted without
// a per-list sort: keys ascend by (u, v), so list x first receives its
// smaller neighbours (from the keys (u, x), ascending in u, all of which
// precede the keys (x, ·)) and then its larger ones (from the keys (x, v),
// ascending in v).
func (b *Builder) Build() *Graph {
	radix.Sort(b.keys, make([]uint64, len(b.keys)))
	b.keys = slices.Compact(b.keys)
	offsets := make([]int64, b.n+1)
	for _, k := range b.keys {
		offsets[k>>32+1]++
		offsets[uint32(k)+1]++
	}
	for i := 0; i < b.n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]uint32, offsets[b.n])
	fill := make([]int64, b.n)
	copy(fill, offsets[:b.n])
	for _, k := range b.keys {
		u, v := uint32(k>>32), uint32(k)
		adj[fill[u]] = v
		fill[u]++
		adj[fill[v]] = u
		fill[v]++
	}
	return &Graph{offsets: offsets, adj: adj}
}

// FromEdges builds a Graph directly from an edge slice.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
