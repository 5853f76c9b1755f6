package intersect_test

import (
	"slices"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
)

// ascending turns raw bytes into a strictly increasing id list below 4096:
// each byte is the gap to the next id, less one.
func ascending(raw []byte) []uint32 {
	var out []uint32
	next := uint32(0)
	for _, b := range raw {
		next += uint32(b%16) + 1
		if next >= 4096 {
			break
		}
		out = append(out, next-1)
	}
	return out
}

// FuzzEdgeKernel checks the edge kernel against the reference it must not
// share code with: for any two strictly increasing lists and any pivot v,
// cutting both to the ids above v and merging them, cutting the streamed
// side and probing a set over the uncut fixed side, and intersect.Merge
// filtered to ids above v all give the same list, AdaptiveBitmapCount gives its
// length, the rule alone decides whether a set is built, and the set is
// empty again after Unfix.
func FuzzEdgeKernel(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 1, 0, 1}, uint16(2), uint8(3))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, []byte{2, 7, 1, 8, 2, 8, 1, 8}, uint16(9), uint8(1))
	f.Add([]byte{15, 15, 15}, []byte{15, 15, 15, 15}, uint16(4095), uint8(200))

	var probe intersect.Prober
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, pivot uint16, k uint8) {
		a, b := ascending(rawA), ascending(rawB)
		v := uint32(pivot)
		var want []uint32
		for _, x := range intersect.Merge(nil, a, b) {
			if x > v {
				want = append(want, x)
			}
		}
		stream := a[intersect.UpperBound(a, v):]
		merged := intersect.AdaptiveBitmap(nil, stream, b[intersect.UpperBound(b, v):], nil)
		if !slices.Equal(merged, want) {
			t.Fatalf("cut and merged: %v, want %v (a=%v b=%v v=%d)", merged, want, a, b, v)
		}
		if n := intersect.AdaptiveBitmapCount(stream, b[intersect.UpperBound(b, v):], nil); n != len(want) {
			t.Fatalf("cut and merged: count %d, want %d", n, len(want))
		}

		set := probe.Fix(b, int(k), 4096)
		if (set != nil) != intersect.ProbePays(int(k)) {
			t.Fatalf("Fix(k=%d) built a set: %v, the rule says %v", k, set != nil, intersect.ProbePays(int(k)))
		}
		if probed := intersect.AdaptiveBitmap(nil, stream, b, set); !slices.Equal(probed, want) {
			t.Fatalf("cut and probed (set %v): %v, want %v (a=%v b=%v v=%d)", set != nil, probed, want, a, b, v)
		}
		if n := intersect.AdaptiveBitmapCount(stream, b, set); n != len(want) {
			t.Fatalf("cut and probed (set %v): count %d, want %d", set != nil, n, len(want))
		}
		intersect.Unfix(set, b)
		if set != nil && set.Count() != 0 {
			t.Fatalf("%d ids left in the set after Unfix", set.Count())
		}
	})
}

// denseGraph is the dense-cpu benchmark workload's graph at seed 1: the
// degree-ordered 12 000-vertex R-MAT proxy of twitter's |E|/|V| density.
func denseGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	d, err := gen.DatasetByName("twitter")
	if err != nil {
		tb.Fatal(err)
	}
	d.Seed = 1
	g, err := d.Proxy(12000)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkEdgeKernel runs one in-memory EdgeIterator≻ pass over the real
// list pairs of the dense-cpu graph per op, three ways: the reference merge
// of the uncut lists, the merge of the lists cut to the triangle's range,
// and the cut lists with the probe rule applied.
func BenchmarkEdgeKernel(b *testing.B) {
	g := denseGraph(b)
	n := g.NumVertices()
	succ := make([][]uint32, n)
	for u := range succ {
		succ[u] = g.NeighborsAfter(graph.VertexID(u))
	}
	want := graph.CountTrianglesReference(g)
	pass := func(b *testing.B, pair func(i int, nsU, nsV []uint32, p *intersect.Prober) int, fix bool) {
		var probe intersect.Prober
		for it := 0; it < b.N; it++ {
			var total int64
			for _, nsU := range succ {
				k := 0
				if fix {
					k = len(nsU)
				}
				set := probe.Fix(nsU, k, n)
				for i, v := range nsU {
					if set != nil {
						total += int64(intersect.AdaptiveBitmapCount(succ[v], nil, set))
					} else {
						total += int64(pair(i, nsU, succ[v], &probe))
					}
				}
				intersect.Unfix(set, nsU)
			}
			if total != want {
				b.Fatalf("counted %d triangles, reference %d", total, want)
			}
		}
	}
	b.Run("merge", func(b *testing.B) {
		pass(b, func(_ int, nsU, nsV []uint32, _ *intersect.Prober) int { return intersect.MergeCount(nsU, nsV) }, false)
	})
	trim := func(i int, nsU, nsV []uint32, _ *intersect.Prober) int {
		return intersect.AdaptiveBitmapCount(nsV, nsU[i+1:], nil)
	}
	b.Run("trim", func(b *testing.B) { pass(b, trim, false) })
	b.Run("trim+probe", func(b *testing.B) { pass(b, trim, true) })
}
