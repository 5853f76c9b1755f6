package graph

import (
	"errors"
	"slices"
	"testing"
)

// FuzzBuilder checks Builder.Build against a map-based reference: the
// first byte sets the vertex count (ids past the largest endpoint are
// isolated tail vertices; 0 is the empty graph), every following byte pair
// is one AddEdge, repeats and self-loops included. Every list must be
// strictly ascending and hold exactly the reference's neighbours.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{5, 1, 2, 2, 1, 1, 2, 3, 3, 0, 4})
	f.Add([]byte{40, 0, 1, 1, 2, 2, 0, 9, 9, 3, 1, 7, 3})
	f.Add([]byte{3, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0]%64), data[1:]
		}
		b := NewBuilder(n)
		want := make([]map[uint32]bool, n)
		for i := range want {
			want[i] = map[uint32]bool{}
		}
		for i := 0; i+1 < len(data); i += 2 {
			u, v := VertexID(data[i]%80), VertexID(data[i+1]%80)
			err := b.AddEdge(u, v)
			if int(u) >= n || int(v) >= n {
				if !errors.Is(err, ErrVertexRange) {
					t.Fatalf("AddEdge(%d, %d) with n=%d: err %v, want ErrVertexRange", u, v, n, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("AddEdge(%d, %d): %v", u, v, err)
			}
			if u != v {
				want[u][v] = true
				want[v][u] = true
			}
		}
		g := b.Build()
		if g.NumVertices() != n {
			t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), n)
		}
		var ends int64
		for v := 0; v < n; v++ {
			got := g.Neighbors(VertexID(v))
			ends += int64(len(got))
			if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
				t.Fatalf("n(%d) = %v, not strictly ascending", v, got)
			}
			if len(got) != len(want[v]) {
				t.Fatalf("n(%d) = %v, want %d neighbours", v, got, len(want[v]))
			}
			for _, w := range got {
				if !want[v][w] {
					t.Fatalf("n(%d) = %v holds %d, not an input edge", v, got, w)
				}
			}
		}
		if g.NumEdges() != ends/2 {
			t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), ends/2)
		}
	})
}
