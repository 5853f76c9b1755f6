package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// The two registered variants with no seam set.
var (
	serial   = optRunner{mode: Serial}
	parallel = optRunner{mode: Parallel}
)

// modelNames spells the iterator models as this package's subtests name them.
var modelNames = map[engine.Model]string{
	engine.ModelEdge: "EdgeIterator", engine.ModelVertex: "VertexIterator", engine.ModelMGTInstance: "MGTInstance",
}

// runWith is engine.Run for this package's tests: o — a registered variant,
// with or without its seams set — over dev, or over st's own file device
// when dev is nil, with the budget resolved as engine.Run resolves it. It
// returns the run's collector beside the result, for the counters
// engine.Result does not carry.
func runWith(ctx context.Context, st *storage.Store, dev ssd.PageDevice, o optRunner, opts engine.Options) (*engine.Result, *metrics.Collector, error) {
	if dev == nil {
		fd, err := st.Device()
		if err != nil {
			return nil, nil, err
		}
		defer func() { _ = fd.Close() }() // read-only test device
		dev = fd
	}
	opts.MemoryPages = opts.Budget(st)
	r := newRunner(ctx, st, dev, o, opts)
	defer r.close()
	res, err := r.run()
	return res, r.mx, err
}

// runFile is runWith over st's own file device, never cancelled.
func runFile(st *storage.Store, o optRunner, opts engine.Options) (*engine.Result, *metrics.Collector, error) {
	return runWith(context.Background(), st, nil, o, opts)
}

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

func runOn(t testing.TB, g *graph.Graph, pageSize int, o optRunner, opts engine.Options) *engine.Result {
	t.Helper()
	st := buildStore(t, g, pageSize)
	res, _, err := runFile(st, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOPTPaperExample(t *testing.T) {
	// The Figure 2 walkthrough: tiny pages force several iterations; both
	// models and both modes must find exactly the 5 triangles of G.
	g := graph.PaperExample()
	for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex} {
		for _, o := range []optRunner{serial, parallel} {
			res := runOn(t, g, 64, o, engine.Options{Model: model, MemoryPages: 4, Threads: 2})
			if res.Triangles != 5 {
				t.Errorf("%v/%v: triangles = %d, want 5", model, o.mode, res.Triangles)
			}
			if res.Iterations < 1 {
				t.Errorf("%v/%v: iterations = %d", model, o.mode, res.Iterations)
			}
		}
	}
}

func TestOPTListsExactTriangles(t *testing.T) {
	g := graph.PaperExample()
	out := &CollectingOutput{}
	_ = runOn(t, g, 64, serial, engine.Options{MemoryPages: 4, OnTriangles: out.Emit})
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
		for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex} {
			for _, o := range []optRunner{serial, parallel} {
				for _, m := range budgets {
					for _, threads := range []int{1, 2, 4} {
						if o.mode == Serial && threads > 1 {
							continue
						}
						res, _, err := runFile(st, o, engine.Options{Model: model, Threads: threads, MemoryPages: m})
						if err != nil {
							t.Fatalf("ps=%d %v/%v m=%d t=%d: %v", pageSize, model, o.mode, m, threads, err)
						}
						if res.Triangles != want {
							t.Fatalf("ps=%d %v/%v m=%d t=%d: triangles = %d, want %d",
								pageSize, model, o.mode, m, threads, res.Triangles, want)
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
		for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex} {
			res := runOn(t, tc.g, 64, parallel, engine.Options{Model: model, Threads: 4, MemoryPages: 6})
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
	for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex} {
		res := runOn(t, g, 64, parallel, engine.Options{Model: model, Threads: 2, MemoryPages: 8})
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
	res := runOn(t, g, 128, serial, engine.Options{MemoryPages: 2})
	if res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestOPTEmptyAndEdgeless(t *testing.T) {
	g, err := graph.FromEdges(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := runOn(t, g, 64, parallel, engine.Options{MemoryPages: 2})
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
	st := buildStore(t, g, 256)
	res, _, err := runFile(st, serial, engine.Options{MemoryPages: int(st.NumPages) / 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedPages == 0 {
		t.Fatal("expected a non-zero Δin page-reuse credit")
	}
	// Reuse must shrink total I/O below one full read per... at most the
	// graph size plus external rereads; just check pages read < async model
	// without reuse would need: pagesRead + reused >= P(G).
	if res.PagesRead+res.ReusedPages < int64(st.NumPages) {
		t.Fatalf("pages read %d + reused %d < P(G) %d", res.PagesRead, res.ReusedPages, st.NumPages)
	}
}

func TestOPTIterationStats(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	res, _, err := runFile(st, parallel, engine.Options{
		Threads: 2, MemoryPages: int(st.NumPages) / 4, CollectIterStats: true,
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
		_, _, err = runWith(context.Background(), st, faulty, parallel, engine.Options{Threads: 2, MemoryPages: 8})
		if !errors.Is(err, ssd.ErrInjected) {
			t.Fatalf("FailEveryN=%d: err = %v, want ErrInjected", every, err)
		}
	}
	// Failure localised to one page mid-store (likely an external read).
	faulty := &ssd.FaultyDevice{PageDevice: base, FailPage: st.NumPages / 2, FailPageSet: true}
	if _, _, err = runWith(context.Background(), st, faulty, serial, engine.Options{MemoryPages: 6}); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("FailPage: err = %v, want ErrInjected", err)
	}
}

func TestOPTDisableMicroOverlap(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 9))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	res := runOn(t, g, 128, optRunner{mode: Serial, seams: seams{disableMicroOverlap: true}}, engine.Options{MemoryPages: 8})
	if res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestOPTDisableMorphing(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 11))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	for _, threads := range []int{2, 4} {
		res := runOn(t, g, 128, parallel, engine.Options{Threads: threads, MemoryPages: 8, DisableMorphing: true})
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
		o := optRunner{mode: Parallel, seams: seams{internalPages: split.in, externalPages: split.ex}}
		res, _, err := runFile(st, o, engine.Options{Threads: 2, MemoryPages: 8})
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
	res := runOn(t, g, 128, parallel, engine.Options{
		Threads: 2, MemoryPages: 6,
		Latency: ssd.Latency{PerRead: 200_000, PerPage: 50_000}, // 0.2ms + 0.05ms/page
	})
	if res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestModeString(t *testing.T) {
	if Serial.String() != "OPT_serial" || Parallel.String() != "OPT" {
		t.Fatal("Mode.String wrong")
	}
}
