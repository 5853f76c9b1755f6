package inmem

import (
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(gen.DefaultRMAT(1<<10, 15_000, 77))
	if err != nil {
		t.Fatal(err)
	}
	ordered, _ := graph.DegreeOrder(rmat)
	hk, err := gen.HolmeKim(gen.HolmeKimParams{NumVertices: 800, M: 6, TriadProb: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"paper": graph.PaperExample(),
		"k25":   graph.Complete(25),
		"cycle": graph.Cycle(100),
		"star":  graph.Star(100),
		"rmat":  ordered,
		"hk":    hk,
	}
}

func TestAllMethodsAgree(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := graph.CountTrianglesReference(g)
		if got := EdgeIteratorCount(g, nil, nil); got != want {
			t.Errorf("%s: EdgeIterator = %d, want %d", name, got, want)
		}
		if got := VertexIteratorCount(g, nil, nil); got != want {
			t.Errorf("%s: VertexIterator = %d, want %d", name, got, want)
		}
		if got := AYZCount(g, nil); got != want {
			t.Errorf("%s: AYZ = %d, want %d", name, got, want)
		}
		for _, threads := range []int{1, 2, 4} {
			if got := EdgeIteratorParallel(g, threads, nil); got != want {
				t.Errorf("%s: EdgeIteratorParallel(%d) = %d, want %d", name, threads, got, want)
			}
		}
	}
}

func TestEdgeIteratorEmitsNested(t *testing.T) {
	g := graph.PaperExample()
	var recs int
	var tris int
	EdgeIteratorCount(g, func(u, v uint32, ws []uint32) {
		recs++
		tris += len(ws)
		if u >= v {
			t.Errorf("emit (u=%d, v=%d) violates ordering", u, v)
		}
		for _, w := range ws {
			if w <= v {
				t.Errorf("emit w=%d <= v=%d", w, v)
			}
		}
	}, nil)
	if tris != 5 {
		t.Fatalf("emitted %d triangles, want 5", tris)
	}
	if recs > tris {
		t.Fatalf("nested representation degenerate: %d records for %d triangles", recs, tris)
	}
}

func TestVertexIteratorEmits(t *testing.T) {
	g := graph.Complete(5)
	var tris int
	VertexIteratorCount(g, func(_, _ uint32, ws []uint32) { tris += len(ws) }, nil)
	if tris != 10 {
		t.Fatalf("emitted %d triangles, want 10", tris)
	}
}

func TestMetricsCostModel(t *testing.T) {
	g := graph.PaperExample()
	var cost Cost
	if got := EdgeIteratorCount(g, nil, &cost); got != 5 {
		t.Fatalf("triangles = %d, want 5", got)
	}
	if cost.Calls != int64(g.NumEdges()) {
		t.Fatalf("intersections = %d, want one per edge = %d", cost.Calls, g.NumEdges())
	}
	if cost.Ops == 0 {
		t.Fatal("Ops = 0")
	}
	// Both iterators record their cost; the VI collector must also be
	// populated. (The paper's ~20% EI-vs-VI wall-time gap comes from the
	// heavier per-operation cost of VI's pair probes, not the op count.)
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 8000, 5))
	og, _ := graph.DegreeOrder(raw)
	var costVI Cost
	VertexIteratorCount(og, nil, &costVI)
	if costVI.Ops == 0 {
		t.Fatal("VI recorded no cost")
	}
}

func TestDegreeOrderingReducesCost(t *testing.T) {
	// The Schank–Wagner heuristic must reduce the Eq. 3 cost on power-law
	// graphs (§2.2).
	raw, _ := gen.RMAT(gen.DefaultRMAT(1<<11, 30_000, 9))
	ordered, _ := graph.DegreeOrder(raw)
	var costRaw, costOrd Cost
	EdgeIteratorCount(raw, nil, &costRaw)
	EdgeIteratorCount(ordered, nil, &costOrd)
	if costOrd.Ops >= costRaw.Ops {
		t.Fatalf("degree ordering did not reduce cost: %d >= %d", costOrd.Ops, costRaw.Ops)
	}
	// The parallel edge iterator does the same intersections.
	var costPar Cost
	if got, want := EdgeIteratorParallel(ordered, 3, &costPar), EdgeIteratorCount(ordered, nil, nil); got != want {
		t.Fatalf("parallel edge iterator counted %d, want %d", got, want)
	}
	if costPar != costOrd {
		t.Fatalf("parallel edge iterator cost %+v, sequential %+v", costPar, costOrd)
	}
}

func TestIdeal(t *testing.T) {
	g := graph.PaperExample()
	var cost, edge Cost
	res := Ideal(g, 42, nil, &cost)
	if res.Triangles != 5 {
		t.Fatalf("Ideal triangles = %d, want 5", res.Triangles)
	}
	if res.PagesRead != 42 {
		t.Fatalf("Ideal pages = %d, want 42", res.PagesRead)
	}
	if EdgeIteratorCount(g, nil, &edge); cost.Ops != edge.Ops {
		t.Fatalf("Ideal cost %d, the edge iterator's %d", cost.Ops, edge.Ops)
	}
}

func TestAYZHighDegreeSplit(t *testing.T) {
	// A dense core plus sparse periphery exercises both AYZ steps.
	b := graph.NewBuilder(60)
	// K12 core (high degree).
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			_ = b.AddEdge(uint32(u), uint32(v))
		}
	}
	// Periphery triangles touching the core.
	for i := 12; i < 58; i += 2 {
		_ = b.AddEdge(uint32(i), uint32(i+1))
		_ = b.AddEdge(uint32(i), uint32(i%12))
		_ = b.AddEdge(uint32(i+1), uint32(i%12))
	}
	g := b.Build()
	want := graph.CountTrianglesReference(g)
	if got := AYZCount(g, nil); got != want {
		t.Fatalf("AYZ = %d, want %d", got, want)
	}
}

func TestForwardMatchesReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := graph.CountTrianglesReference(g)
		if got := ForwardCount(g, nil, nil); got != want {
			t.Errorf("%s: Forward = %d, want %d", name, got, want)
		}
	}
}

func TestForwardEmitsOrderedTriangles(t *testing.T) {
	g := graph.PaperExample()
	seen := map[[3]uint32]bool{}
	ForwardCount(g, func(u, v uint32, ws []uint32) {
		for _, w := range ws {
			if !(u < v && v < w) {
				t.Errorf("unordered triangle (%d,%d,%d)", u, v, w)
			}
			key := [3]uint32{u, v, w}
			if seen[key] {
				t.Errorf("duplicate triangle %v", key)
			}
			seen[key] = true
		}
	}, nil)
	if len(seen) != 5 {
		t.Fatalf("Forward emitted %d triangles, want 5", len(seen))
	}
}

func TestForwardMetrics(t *testing.T) {
	g := graph.Complete(10)
	var cost Cost
	if got := ForwardCount(g, nil, &cost); got != 120 {
		t.Fatalf("Forward(K10) = %d, want 120", got)
	}
	if cost.Calls == 0 {
		t.Fatalf("cost not recorded: %+v", cost)
	}
}
