package core

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// buildStore materialises g into a store file in a test temp dir.
func buildStore(t testing.TB, g *graph.Graph, pageSize int) *storage.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.optstore")
	st, err := storage.BuildFile(path, g, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runOn(t testing.TB, g *graph.Graph, pageSize int, opts Options) *Result {
	t.Helper()
	st := buildStore(t, g, pageSize)
	res, err := RunFile(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOPTPaperExample(t *testing.T) {
	// The Figure 2 walkthrough: tiny pages force several iterations; both
	// models and both modes must find exactly the 5 triangles of G.
	g := graph.PaperExample()
	for _, model := range []ModelKind{EdgeIterator, VertexIterator} {
		for _, mode := range []Mode{Serial, Parallel} {
			res := runOn(t, g, 64, Options{
				Model: model, Mode: mode, MemoryPages: 4, Threads: 2,
			})
			if res.Triangles != 5 {
				t.Errorf("%v/%v: triangles = %d, want 5", model, mode, res.Triangles)
			}
			if res.Iterations < 1 {
				t.Errorf("%v/%v: iterations = %d", model, mode, res.Iterations)
			}
		}
	}
}

func TestOPTListsExactTriangles(t *testing.T) {
	g := graph.PaperExample()
	out := &CollectingOutput{}
	_ = runOn(t, g, 64, Options{Mode: Serial, MemoryPages: 4, Output: out})
	got := out.Triangles()
	want := []Triangle{
		{0, 1, 2}, // abc
		{2, 3, 5}, // cdf
		{2, 5, 6}, // cfg
		{2, 6, 7}, // cgh
		{3, 4, 5}, // def
	}
	if len(got) != len(want) {
		t.Fatalf("triangles = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("triangles = %v, want %v", got, want)
		}
	}
}

// TestOPTMatchesReference is the main correctness gate: every combination
// of model, mode, buffer budget and page size must agree with the in-memory
// reference count on a skewed R-MAT graph.
func TestOPTMatchesReference(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	if want == 0 {
		t.Fatal("test graph has no triangles")
	}
	for _, pageSize := range []int{128, 512} {
		st := buildStore(t, g, pageSize)
		budgets := []int{2, 4, int(st.NumPages)/10 + 2, int(st.NumPages)/4 + 2, int(st.NumPages) + 4}
		for _, model := range []ModelKind{EdgeIterator, VertexIterator} {
			for _, mode := range []Mode{Serial, Parallel} {
				for _, m := range budgets {
					for _, threads := range []int{1, 2, 4} {
						if mode == Serial && threads > 1 {
							continue
						}
						res, err := RunFile(st, Options{
							Model: model, Mode: mode, Threads: threads, MemoryPages: m,
						})
						if err != nil {
							t.Fatalf("ps=%d %v/%v m=%d t=%d: %v", pageSize, model, mode, m, threads, err)
						}
						if res.Triangles != want {
							t.Fatalf("ps=%d %v/%v m=%d t=%d: triangles = %d, want %d",
								pageSize, model, mode, m, threads, res.Triangles, want)
						}
					}
				}
			}
		}
	}
}

func TestOPTSpecialGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K20", graph.Complete(20), 1140},
		{"C50", graph.Cycle(50), 0},
		{"Star200", graph.Star(200), 0},
	}
	for _, tc := range cases {
		for _, model := range []ModelKind{EdgeIterator, VertexIterator} {
			res := runOn(t, tc.g, 64, Options{Model: model, Mode: Parallel, Threads: 4, MemoryPages: 6})
			if res.Triangles != tc.want {
				t.Errorf("%s/%v: triangles = %d, want %d", tc.name, model, res.Triangles, tc.want)
			}
		}
	}
}

func TestOPTOversizedAdjacencyLists(t *testing.T) {
	// Hub degree far beyond one 64-byte page: record runs must flow through
	// both the internal and the external area intact.
	g := graph.Complete(40) // every list has 39 entries; page 64 holds 12
	want := int64(40 * 39 * 38 / 6)
	for _, model := range []ModelKind{EdgeIterator, VertexIterator} {
		res := runOn(t, g, 64, Options{Model: model, Mode: Parallel, Threads: 2, MemoryPages: 8})
		if res.Triangles != want {
			t.Errorf("%v: triangles = %d, want %d", model, res.Triangles, want)
		}
	}
}

func TestOPTMinimalBuffer(t *testing.T) {
	// The paper's minimum: the internal area must hold at least one
	// adjacency list. MemoryPages 2 -> m_in = m_ex = 1.
	raw, _ := gen.RMAT(gen.DefaultRMAT(256, 2000, 7))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	res := runOn(t, g, 128, Options{Mode: Serial, MemoryPages: 2})
	if res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestOPTEmptyAndEdgeless(t *testing.T) {
	g, err := graph.FromEdges(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := runOn(t, g, 64, Options{Mode: Parallel, MemoryPages: 2})
	if res.Triangles != 0 {
		t.Fatalf("triangles = %d, want 0", res.Triangles)
	}
}

func TestOPTReusedPagesCredit(t *testing.T) {
	// With the planned split and a dense enough graph, the external
	// area of iteration i retains pages of iteration i+1's internal area:
	// the Δin credit must be non-zero (§3.3, negative-overhead mechanism).
	raw, _ := gen.RMAT(gen.DefaultRMAT(1<<10, 20_000, 3))
	g, _ := graph.DegreeOrder(raw)
	mx := metrics.NewCollector()
	st := buildStore(t, g, 256)
	if _, err := RunFile(st, Options{
		Mode: Serial, MemoryPages: int(st.NumPages) / 5, Metrics: mx,
	}); err != nil {
		t.Fatal(err)
	}
	if mx.ReusedPages() == 0 {
		t.Fatal("expected a non-zero Δin page-reuse credit")
	}
	// Reuse must shrink total I/O below one full read per... at most the
	// graph size plus external rereads; just check pages read < async model
	// without reuse would need: pagesRead + reused >= P(G).
	if mx.PagesRead()+mx.ReusedPages() < int64(st.NumPages) {
		t.Fatalf("pages read %d + reused %d < P(G) %d", mx.PagesRead(), mx.ReusedPages(), st.NumPages)
	}
}

func TestOPTIterationStats(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	res, err := RunFile(st, Options{
		Mode: Parallel, Threads: 2, MemoryPages: int(st.NumPages) / 4,
		CollectIterStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterStats) != res.Iterations {
		t.Fatalf("IterStats = %d entries, iterations = %d", len(res.IterStats), res.Iterations)
	}
	totalPages := 0
	for i, s := range res.IterStats {
		if s.Index != i {
			t.Errorf("stat %d has index %d", i, s.Index)
		}
		totalPages += s.InternalPages
	}
	if totalPages != int(st.NumPages) {
		t.Fatalf("iterations covered %d pages, store has %d", totalPages, st.NumPages)
	}
}

func TestOPTIOErrorPropagates(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	for _, every := range []int64{1, 3, 7} {
		faulty := &ssd.FaultyDevice{PageDevice: base, FailEveryN: every}
		_, err = Run(st, faulty, Options{Mode: Parallel, Threads: 2, MemoryPages: 8})
		if !errors.Is(err, ssd.ErrInjected) {
			t.Fatalf("FailEveryN=%d: err = %v, want ErrInjected", every, err)
		}
	}
	// Failure localised to one page mid-store (likely an external read).
	faulty := &ssd.FaultyDevice{PageDevice: base, FailPage: st.NumPages / 2, FailPageSet: true}
	if _, err = Run(st, faulty, Options{Mode: Serial, MemoryPages: 6}); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("FailPage: err = %v, want ErrInjected", err)
	}
}

func TestOPTDisableMicroOverlap(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 9))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	res := runOn(t, g, 128, Options{
		Mode: Serial, MemoryPages: 8, DisableMicroOverlap: true,
	})
	if res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestOPTDisableMorphing(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 11))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	for _, threads := range []int{2, 4} {
		res := runOn(t, g, 128, Options{
			Mode: Parallel, Threads: threads, MemoryPages: 8, DisableMorphing: true,
		})
		if res.Triangles != want {
			t.Fatalf("threads=%d: triangles = %d, want %d", threads, res.Triangles, want)
		}
	}
}

func TestOPTUnevenAreaSplit(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 13))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	st := buildStore(t, g, 128)
	for _, split := range []struct{ in, ex int }{
		{1, 7}, {7, 1}, {3, 5}, {0, 4}, {4, 0},
	} {
		res, err := RunFile(st, Options{
			Mode: Parallel, Threads: 2, MemoryPages: 8,
			InternalPages: split.in, ExternalPages: split.ex,
		})
		if err != nil {
			t.Fatalf("split %+v: %v", split, err)
		}
		if res.Triangles != want {
			t.Fatalf("split %+v: triangles = %d, want %d", split, res.Triangles, want)
		}
	}
}

func TestOPTWithSimulatedLatency(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(256, 3000, 15))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	res := runOn(t, g, 128, Options{
		Mode: Parallel, Threads: 2, MemoryPages: 6,
		Latency: ssd.Latency{PerRead: 200_000, PerPage: 50_000}, // 0.2ms + 0.05ms/page
	})
	if res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestModelKindString(t *testing.T) {
	if EdgeIterator.String() != "EdgeIterator" || VertexIterator.String() != "VertexIterator" {
		t.Fatal("ModelKind.String wrong")
	}
	if ModelKind(99).String() != "UnknownModel" {
		t.Fatal("unknown ModelKind.String wrong")
	}
	if Serial.String() != "OPT_serial" || Parallel.String() != "OPT" {
		t.Fatal("Mode.String wrong")
	}
}
