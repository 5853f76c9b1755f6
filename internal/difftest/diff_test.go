package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"

	// Every algorithm package registers its Runner in init; the sweep
	// enumerates the registry, so importing one here adds it to the matrix.
	_ "github.com/optlab/opt/internal/baselines/cc"
	_ "github.com/optlab/opt/internal/baselines/gchi"
	_ "github.com/optlab/opt/internal/baselines/mgt"
	_ "github.com/optlab/opt/internal/core"
)

const pageSize = 128

// codecs is the page-codec axis of the sweep: every algorithm must produce
// identical counts whether the store pages are raw or delta+varint.
var codecs = []string{storage.CodecRaw, storage.CodecDeltaVarint}

func buildStore(t testing.TB, g *graph.Graph) (*storage.Store, *ssd.FileDevice) {
	return buildStoreCodec(t, g, storage.CodecRaw)
}

func buildStoreCodec(t testing.TB, g *graph.Graph, codec string) (*storage.Store, *ssd.FileDevice) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.optstore")
	st, err := storage.BuildFileCodec(path, g, pageSize, codec)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dev.Close() })
	return st, dev
}

// buildStoreBackend opens the store through an explicit device backend —
// the native-backend axis of the sweep.
func buildStoreBackend(t testing.TB, g *graph.Graph, codec string, backend ssd.Backend) (*storage.Store, ssd.PageDevice) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.optstore")
	st, err := storage.BuildFileCodec(path, g, pageSize, codec)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := st.DeviceBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dev.Close() })
	return st, dev
}

// disconnected stitches several components together: a K10 clique, a
// triangle-free 10-cycle, a K5, one extra triangle, and trailing isolated
// vertices — triangles must be found per component, never across them.
func disconnected(t testing.TB) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < 10; u++ { // K10 on 0..9
		for v := u + 1; v < 10; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	for i := 0; i < 10; i++ { // 10-cycle on 20..29
		edges = append(edges, graph.Edge{U: uint32(20 + i), V: uint32(20 + (i+1)%10)})
	}
	for u := 40; u < 45; u++ { // K5 on 40..44
		for v := u + 1; v < 45; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	edges = append(edges, // one triangle on 50..52
		graph.Edge{U: 50, V: 51}, graph.Edge{U: 51, V: 52}, graph.Edge{U: 50, V: 52})
	g, err := graph.FromEdges(64, edges) // 53..63 isolated
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// workloads is the shared graph matrix of the differential sweep.
func workloads(t testing.TB) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	empty, err := graph.FromEdges(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 31))
	if err != nil {
		t.Fatal(err)
	}
	powerlaw, _ := graph.DegreeOrder(raw)
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", empty},
		{"star", graph.Star(300)},
		{"clique", graph.Complete(25)},
		{"powerlaw", powerlaw},
		{"disconnected", disconnected(t)},
	}
}

// TestAllAlgorithmsMatchReference is the differential sweep: every
// registered algorithm, over every workload, under every memory budget and
// page codec, must report exactly the in-memory reference count. One table
// replaces the per-pair comparisons (MGT vs reference, CC vs reference, …)
// the baseline tests used to duplicate, and automatically covers algorithms
// registered in the future.
func TestAllAlgorithmsMatchReference(t *testing.T) {
	algos := engine.Names()
	if len(algos) < 6 {
		t.Fatalf("registry has %d algorithms %v, want the full suite", len(algos), algos)
	}
	budgets := []int{0, 4, 16} // 0 -> the 15% default fraction
	for _, w := range workloads(t) {
		want := graph.CountTrianglesReference(w.g)
		for _, codec := range codecs {
			for _, budget := range budgets {
				for _, name := range algos {
					t.Run(fmt.Sprintf("%s/%s/m=%d/%s", w.name, codec, budget, name), func(t *testing.T) {
						if got := count(t, name, w.g, codec, budget); got != want {
							t.Fatalf("counted %d triangles, reference says %d", got, want)
						}
					})
				}
			}
		}
	}
}

// TestSerialPagesReadDeterministic pins that OPT_serial at QueueDepth 1
// reads the same pages, and takes the same Δin credit, on every run of the
// powerlaw workload. The external pool evicts in insertion order, and a
// chunk enters it when its read has completed and been decoded: with one
// device channel reads complete in issue order, and OPT_serial decodes on
// the callback thread, so the pool's contents are a function of the store
// and the options. With more channels, or OPT's workers decoding, that
// order, and PagesRead with it, varies from run to run (DESIGN.md §9).
func TestSerialPagesReadDeterministic(t *testing.T) {
	g := workloads(t)[3]
	if g.name != "powerlaw" {
		t.Fatalf("workload 3 is %s, want powerlaw", g.name)
	}
	st, dev := buildStore(t, g.g)
	for _, budget := range []int{4, 16} {
		var first *engine.Result
		for run := 0; run < 4; run++ {
			res, err := engine.Run(context.Background(), "OPT_serial", st, dev, engine.Options{MemoryPages: budget, QueueDepth: 1})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				t.Logf("m=%d: %d pages read, %d reused", budget, res.PagesRead, res.ReusedPages)
				continue
			}
			if res.PagesRead != first.PagesRead || res.ReusedPages != first.ReusedPages {
				t.Fatalf("m=%d run %d: %d pages read, %d reused; run 0: %d, %d",
					budget, run, res.PagesRead, res.ReusedPages, first.PagesRead, first.ReusedPages)
			}
		}
	}
}

// count stores g under codec, runs algorithm name over it with a budget of
// budget pages (0: the default fraction) and returns the triangle count. A
// Collector attached as the run's event sink must see the page I/O the
// Result reports: every runner keeps its own collector private and counts
// what its events say, so a sink is the one outside outlet, and it cannot
// double a count. Progress has the granularity of Algorithm 3's outer
// loop: at most one TrianglesFound per iteration (one for a run of none,
// such as a Shard2D task's single one), their N adding up to the count, so
// what retains a run's events — an optd job's replay ring — holds a few
// per iteration, whatever the graph's size.
func count(t *testing.T, name string, g *graph.Graph, codec string, budget int) int64 {
	t.Helper()
	st, dev := buildStoreCodec(t, g, codec)
	sink := metrics.NewCollector()
	progress := &testutil.TriangleSink{}
	res, err := engine.Run(context.Background(), name, st, dev, engine.Options{
		MemoryPages: budget,
		TempDir:     t.TempDir(),
		Codec:       codec,
		Events:      events.Tee(sink, progress),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != name {
		t.Fatalf("result algorithm %q, want %q", res.Algorithm, name)
	}
	if sink.PagesRead() != res.PagesRead || sink.PagesWritten() != res.PagesWritten {
		t.Fatalf("sink counted %d pages read, %d written; the result has %d, %d",
			sink.PagesRead(), sink.PagesWritten(), res.PagesRead, res.PagesWritten)
	}
	found, sum := progress.Counts()
	if limit := max(1, res.Iterations); found > limit {
		t.Fatalf("%d TrianglesFound events over %d iterations, want ≤ %d", found, res.Iterations, limit)
	}
	if sum != res.Triangles {
		t.Fatalf("TrianglesFound events sum to %d, the result counts %d", sum, res.Triangles)
	}
	return res.Triangles
}

// edgeList returns g's edges, one entry per undirected edge.
func edgeList(g *graph.Graph) []graph.Edge {
	var edges []graph.Edge
	g.Edges(func(u, v graph.VertexID) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	return edges
}

// TestMetamorphicCounts checks every registered algorithm against itself,
// with no oracle: over every workload and page codec, relabelling the
// vertices by a seeded permutation or shuffling the edge list (order and
// endpoint orientation) leaves the count unchanged, and adding one edge
// never lowers it. A tight budget keeps every run multi-iteration, where
// ids decide what is internal and what is read from the store.
func TestMetamorphicCounts(t *testing.T) {
	const budget = 4
	for _, w := range workloads(t) {
		rng := rand.New(rand.NewSource(1))
		n := w.g.NumVertices()
		edges := edgeList(w.g)
		perm := make([]graph.VertexID, n)
		for i, p := range rng.Perm(n) {
			perm[i] = graph.VertexID(p)
		}
		relabelled := graph.Relabel(w.g, perm)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if rng.Intn(2) == 0 {
				edges[i].U, edges[i].V = edges[i].V, edges[i].U
			}
		}
		shuffled, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		// One absent edge, when the graph has any (the clique has none).
		var grown *graph.Graph
		for tries := 0; tries < 100*n && grown == nil; tries++ {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if u != v && !w.g.HasEdge(u, v) {
				if grown, err = graph.FromEdges(n, append(edges, graph.Edge{U: u, V: v})); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, codec := range codecs {
			for _, name := range engine.Names() {
				t.Run(fmt.Sprintf("%s/%s/%s", w.name, codec, name), func(t *testing.T) {
					base := count(t, name, w.g, codec, budget)
					if got := count(t, name, relabelled, codec, budget); got != base {
						t.Errorf("relabelled: counted %d triangles, %d before", got, base)
					}
					if got := count(t, name, shuffled, codec, budget); got != base {
						t.Errorf("shuffled edge list: counted %d triangles, %d before", got, base)
					}
					if grown != nil {
						if got := count(t, name, grown, codec, budget); got < base {
							t.Errorf("one edge added: counted %d triangles, %d before", got, base)
						}
					}
				})
			}
		}
	}
}

// TestNativeBackendMatchesReference is the backend axis of the sweep: every
// registered algorithm, over every workload and codec, must report the
// reference count when the store is served by the native Linux backend
// (io_uring or preadv, possibly O_DIRECT) instead of the portable file
// device. A reduced budget set keeps the doubled matrix affordable; the
// full budget sweep stays on the portable axis above.
func TestNativeBackendMatchesReference(t *testing.T) {
	if !ssd.NativeAvailable() {
		t.Skip("native backend unavailable on this platform")
	}
	for _, w := range workloads(t) {
		want := graph.CountTrianglesReference(w.g)
		for _, codec := range codecs {
			for _, name := range engine.Names() {
				t.Run(fmt.Sprintf("%s/%s/%s", w.name, codec, name), func(t *testing.T) {
					st, dev := buildStoreBackend(t, w.g, codec, ssd.BackendNative)
					res, err := engine.Run(context.Background(), name, st, dev, engine.Options{
						TempDir: t.TempDir(),
						Codec:   codec,
						Backend: string(ssd.BackendNative),
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Triangles != want {
						t.Fatalf("counted %d triangles, reference says %d", res.Triangles, want)
					}
				})
			}
		}
	}
}

// TestReferenceOracle anchors the sweep's oracle itself on closed-form
// counts, so a broken reference cannot silently vacuously pass the matrix.
func TestReferenceOracle(t *testing.T) {
	empty, err := graph.FromEdges(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"empty", empty, 0},
		{"star", graph.Star(300), 0},
		{"clique", graph.Complete(25), 25 * 24 * 23 / 6},
		// K10 + K5 + one triangle; the cycle and isolated vertices add none.
		{"disconnected", disconnected(t), 10*9*8/6 + 5*4*3/6 + 1},
	}
	for _, tc := range cases {
		if got := graph.CountTrianglesReference(tc.g); got != tc.want {
			t.Errorf("%s: reference = %d, want %d", tc.name, got, tc.want)
		}
	}
}
