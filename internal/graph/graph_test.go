package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestBuilderSimpleGraph(t *testing.T) {
	b := NewBuilder(4)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	mustAdd(t, b, 2, 0)
	mustAdd(t, b, 3, 0)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if g.Degree(3) != 1 {
		t.Fatalf("Degree(3) = %d, want 1", g.Degree(3))
	}
}

func mustAdd(t *testing.T, b *Builder, u, v VertexID) {
	t.Helper()
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 0) // duplicate, reversed
	mustAdd(t, b, 0, 1) // duplicate
	mustAdd(t, b, 1, 1) // self-loop, ignored
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(1) != 1 {
		t.Fatalf("Degree(1) = %d, want 1", g.Degree(1))
	}
}

func TestBuilderRangeError(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 5); err == nil {
		t.Fatal("AddEdge(0,5) on n=2: want error")
	}
}

func TestNeighborsAfterBefore(t *testing.T) {
	g := PaperExample()
	// vertex c (=2) has neighbors a,b,d,f,g,h = {0,1,3,5,6,7}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []uint32{0, 1, 3, 5, 6, 7}) {
		t.Fatalf("Neighbors(c) = %v", got)
	}
	if got := g.NeighborsAfter(2); !reflect.DeepEqual(got, []uint32{3, 5, 6, 7}) {
		t.Fatalf("NeighborsAfter(c) = %v", got)
	}
	if got := g.NeighborsBefore(2); !reflect.DeepEqual(got, []uint32{0, 1}) {
		t.Fatalf("NeighborsBefore(c) = %v", got)
	}
}

func TestHasEdge(t *testing.T) {
	g := PaperExample()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(a,b) = false")
	}
	if g.HasEdge(0, 7) {
		t.Error("HasEdge(a,h) = true")
	}
	if g.HasEdge(0, 99) || g.HasEdge(99, 0) {
		t.Error("HasEdge out of range = true")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := PaperExample()
	count := 0
	g.Edges(func(u, v VertexID) bool {
		if u >= v {
			t.Fatalf("Edges emitted (u=%d, v=%d) with u >= v", u, v)
		}
		count++
		return true
	})
	if int64(count) != g.NumEdges() {
		t.Fatalf("Edges visited %d, want %d", count, g.NumEdges())
	}
	// Early stop.
	count = 0
	g.Edges(func(u, v VertexID) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early-stopped Edges visited %d, want 3", count)
	}
}

func TestPaperExampleTriangles(t *testing.T) {
	g := PaperExample()
	if got := CountTrianglesReference(g); got != 5 {
		t.Fatalf("paper example triangles = %d, want 5", got)
	}
}

func TestSpecialGraphTriangles(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"K4", Complete(4), 4},
		{"K5", Complete(5), 10},
		{"K10", Complete(10), 120},
		{"C10", Cycle(10), 0},
		{"C3", Cycle(3), 1},
		{"Star100", Star(100), 0},
		{"empty", mustGraph(t, 5, nil), 0},
	}
	for _, tc := range cases {
		if got := CountTrianglesReference(tc.g); got != tc.want {
			t.Errorf("%s: triangles = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDegreeOrderInvariants(t *testing.T) {
	g := PaperExample()
	og, perm := DegreeOrder(g)
	if !IsDegreeOrdered(og) {
		t.Fatal("DegreeOrder result is not degree ordered")
	}
	if og.NumVertices() != g.NumVertices() || og.NumEdges() != g.NumEdges() {
		t.Fatal("DegreeOrder changed graph size")
	}
	// Relabeling preserves triangle count.
	if got := CountTrianglesReference(og); got != 5 {
		t.Fatalf("triangles after DegreeOrder = %d, want 5", got)
	}
	// perm maps new ids back to originals bijectively.
	seen := make(map[VertexID]bool)
	for _, orig := range perm {
		if seen[orig] {
			t.Fatal("perm is not a bijection")
		}
		seen[orig] = true
	}
	// Degrees correspond through perm.
	for rank, orig := range perm {
		if og.Degree(VertexID(rank)) != g.Degree(orig) {
			t.Fatalf("degree mismatch at rank %d", rank)
		}
	}
}

// TestRankByDegreeMatchesStableSort: the counting sort must give exactly
// the (degree, id) order of a stable comparison sort, including degrees
// of 2¹⁶ and more (its second digit pass) and degrees at or above the
// vertex count (as repeated input edges produce).
func TestRankByDegreeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, maxDeg := range []int{0, 1, 3, 200, 1 << 16, 1<<16 + 3, 1 << 31} {
		for _, n := range []int{0, 1, 2, 50, 3000} {
			deg := make([]uint32, n)
			for v := range deg {
				deg[v] = uint32(rng.Intn(maxDeg + 1))
			}
			want := make([]VertexID, n)
			for v := range want {
				want[v] = VertexID(v)
			}
			sort.SliceStable(want, func(i, j int) bool { return deg[want[i]] < deg[want[j]] })
			if got := RankByDegree(deg); !reflect.DeepEqual(got, want) {
				t.Fatalf("max degree %d, n=%d: rank order differs from the stable sort", maxDeg, n)
			}
		}
	}
}

func TestDegreeOrderReducesNSuccCost(t *testing.T) {
	// On a hub-heavy graph, degree ordering should give the hub an id with
	// small n≻.
	g := Star(50)
	og, _ := DegreeOrder(g)
	hub := VertexID(og.NumVertices() - 1) // highest id = highest degree
	if og.Degree(hub) != 49 {
		t.Fatalf("hub degree = %d, want 49", og.Degree(hub))
	}
	if got := len(og.NeighborsAfter(hub)); got != 0 {
		t.Fatalf("|n≻(hub)| = %d, want 0", got)
	}
}

func TestRelabelRandomPermutationPreservesTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 60, 300)
	want := CountTrianglesReference(g)
	perm := make([]VertexID, g.NumVertices())
	for i := range perm {
		perm[i] = VertexID(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	rg := RandomOrder(g, perm)
	if got := CountTrianglesReference(rg); got != want {
		t.Fatalf("triangles after random relabel = %d, want %d", got, want)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		_ = b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return b.Build()
}

func TestAdjacencyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40, 200)
		for v := 0; v < g.NumVertices(); v++ {
			n := g.Neighbors(VertexID(v))
			for i := range n {
				if i > 0 && n[i] <= n[i-1] {
					t.Fatalf("Neighbors(%d) not strictly increasing: %v", v, n)
				}
				if n[i] == uint32(v) {
					t.Fatalf("self-loop survived at %d", v)
				}
				// Symmetry.
				if !g.HasEdge(n[i], VertexID(v)) {
					t.Fatalf("asymmetric edge (%d, %d)", v, n[i])
				}
			}
		}
	}
}

func TestStatsOnPaperExample(t *testing.T) {
	g := PaperExample()
	s := BasicStats(g)
	if s.NumVertices != 8 || s.NumEdges != 12 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDegree != 6 { // vertex c
		t.Fatalf("MaxDegree = %d, want 6", s.MaxDegree)
	}
	if s.AvgDegree != 3 {
		t.Fatalf("AvgDegree = %v, want 3", s.AvgDegree)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	// K4: every vertex has C(v)=1.
	for _, c := range LocalClusteringCoefficient(Complete(4)) {
		if c != 1 {
			t.Fatalf("K4 local cc = %v, want 1", c)
		}
	}
	if got := AverageClusteringCoefficient(Complete(4)); got != 1 {
		t.Fatalf("K4 avg cc = %v, want 1", got)
	}
	if got := AverageClusteringCoefficient(Cycle(10)); got != 0 {
		t.Fatalf("C10 avg cc = %v, want 0", got)
	}
	if got := Transitivity(Complete(5)); got != 1 {
		t.Fatalf("K5 transitivity = %v, want 1", got)
	}
	if got := Transitivity(Star(10)); got != 0 {
		t.Fatalf("star transitivity = %v, want 0", got)
	}
}

func TestTriangleCountsPerVertex(t *testing.T) {
	g := PaperExample()
	tri := TriangleCountsPerVertex(g)
	// c (=2) participates in Δabc, Δcdf, Δcfg, Δcgh = 4 triangles.
	if tri[2] != 4 {
		t.Fatalf("tri(c) = %d, want 4", tri[2])
	}
	// a participates only in Δabc.
	if tri[0] != 1 {
		t.Fatalf("tri(a) = %d, want 1", tri[0])
	}
	// Sum of per-vertex counts = 3 * total triangles.
	var sum int64
	for _, x := range tri {
		sum += x
	}
	if sum != 15 {
		t.Fatalf("sum tri = %d, want 15", sum)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram(Star(5))
	if h[4] != 1 || h[1] != 4 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestTransitivityEmptyGraph(t *testing.T) {
	g := mustGraph(t, 3, nil)
	if got := Transitivity(g); got != 0 {
		t.Fatalf("Transitivity(empty) = %v, want 0", got)
	}
}

// skewedEdges draws m edges over n vertices with one endpoint biased
// towards low ids, duplicates and self-loops included.
func skewedEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		r := rng.Float64()
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(r * r * float64(n))}
	}
	return edges
}

// BenchmarkBuild times Builder.Build on a multigraph of the dense-cpu
// workload's size (12 000 vertices, 423 k edge samples).
func BenchmarkBuild(b *testing.B) {
	edges := skewedEdges(12000, 423_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(12000, edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegreeOrder times the Schank–Wagner relabeling of the same graph.
func BenchmarkDegreeOrder(b *testing.B) {
	g, err := FromEdges(12000, skewedEdges(12000, 423_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DegreeOrder(g)
	}
}
