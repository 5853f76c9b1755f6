package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// edgeSlice is a trivial re-iterable EdgeScanner.
type edgeSlice [][2]uint32

func (e edgeSlice) Scan(fn func(u, v uint32) error) error {
	for _, p := range e {
		if err := fn(p[0], p[1]); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamingEquivalentToInMemory: for random graphs, the streaming
// builder (with spills forced) must produce a store that decodes to
// exactly the same graph as the in-memory builder on the degree-ordered
// input.
func TestStreamingEquivalentToInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		n := 40 + rng.Intn(200)
		var edges edgeSlice
		for i := 0; i < n*6; i++ {
			edges = append(edges, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
		}
		// Reference: in-memory build on the degree-ordered graph.
		b := graph.NewBuilder(n)
		for _, e := range edges {
			_ = b.AddEdge(e[0], e[1])
		}
		og, _ := graph.DegreeOrder(b.Build())

		dir := t.TempDir()
		streamed, err := BuildFileStreaming(filepath.Join(dir, "s.optstore"), edges, StreamBuildOptions{
			PageSize: 128, TempDir: dir, RunSize: 64, DegreeOrder: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if streamed.NumVertices != og.NumVertices() || streamed.NumEdges != og.NumEdges() {
			t.Fatalf("trial %d: streamed |V|=%d |E|=%d, want |V|=%d |E|=%d",
				trial, streamed.NumVertices, streamed.NumEdges, og.NumVertices(), og.NumEdges())
		}
		// The streaming builder's ordering heuristic counts duplicate input
		// edges, so its permutation can differ from graph.DegreeOrder's —
		// both are valid relabelings. Compare label-invariant properties:
		// degree multiset and triangle count, plus full integrity.
		re := mustReopen(t, streamed)
		got := decodeToGraph(t, re)
		if gd, wd := degreeMultiset(got), degreeMultiset(og); !reflect.DeepEqual(gd, wd) {
			t.Fatalf("trial %d: degree multisets differ", trial)
		}
		if gt, wt := graph.CountTrianglesReference(got), graph.CountTrianglesReference(og); gt != wt {
			t.Fatalf("trial %d: triangles %d, want %d", trial, gt, wt)
		}
		dev, err := re.Device()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(re, dev); err != nil {
			_ = dev.Close()
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := dev.Close(); err != nil {
			t.Fatalf("trial %d: closing device: %v", trial, err)
		}
	}
}

// decodeToGraph reads the whole store back into a graph.
func decodeToGraph(t *testing.T, s *Store) *graph.Graph {
	t.Helper()
	adj := readAll(t, s)
	b := graph.NewBuilder(s.NumVertices)
	for v, ns := range adj {
		for _, w := range ns {
			if v < w {
				_ = b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// degreeMultiset returns the sorted degree sequence.
func degreeMultiset(g *graph.Graph) []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.Degree(graph.VertexID(v))
	}
	sort.Ints(out)
	return out
}

func mustReopen(t *testing.T, s *Store) *Store {
	t.Helper()
	re, err := Open(s.Path)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

func TestStreamingVerifyPasses(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 91))
	if err != nil {
		t.Fatal(err)
	}
	var edges edgeSlice
	raw.Edges(func(u, v graph.VertexID) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	dir := t.TempDir()
	s, err := BuildFileStreaming(filepath.Join(dir, "s.optstore"), edges, StreamBuildOptions{
		PageSize: 256, TempDir: dir, RunSize: 500, DegreeOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	rep, err := Verify(s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges != raw.NumEdges() {
		t.Fatalf("edges = %d, want %d", rep.Edges, raw.NumEdges())
	}
}

func TestStreamingHandlesJunkInput(t *testing.T) {
	// Self-loops, duplicates, isolated gap vertices, reversed duplicates.
	edges := edgeSlice{
		{3, 3},         // self-loop
		{0, 5}, {5, 0}, // duplicate both ways
		{0, 5}, // duplicate again
		{7, 9}, // gap: vertices 1,2,4,6,8 isolated
	}
	dir := t.TempDir()
	s, err := BuildFileStreaming(filepath.Join(dir, "s.optstore"), edges, StreamBuildOptions{
		PageSize: 64, TempDir: dir, DegreeOrder: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices != 10 || s.NumEdges != 2 {
		t.Fatalf("|V|=%d |E|=%d, want 10, 2", s.NumVertices, s.NumEdges)
	}
	for _, v := range []uint32{1, 2, 3, 4, 6, 8} {
		if s.DegreeOf(v) != 0 {
			t.Fatalf("vertex %d degree %d, want 0", v, s.DegreeOf(v))
		}
	}
	if s.DegreeOf(0) != 1 || s.DegreeOf(5) != 1 || s.DegreeOf(7) != 1 || s.DegreeOf(9) != 1 {
		t.Fatal("edge degrees wrong")
	}
}

func TestStreamingEmptyInput(t *testing.T) {
	if _, err := BuildFileStreaming(filepath.Join(t.TempDir(), "x"), edgeSlice{}, StreamBuildOptions{}); err == nil {
		t.Fatal("empty stream: want error")
	}
}

func TestEdgeListFileScanner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.el")
	content := "# header\n1 2\n  2\t3\n% comment\n\n3 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := EdgeListFileScanner{Path: path}
	var got [][2]uint32
	if err := sc.Scan(func(u, v uint32) error {
		got = append(got, [2]uint32{u, v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]uint32{{1, 2}, {2, 3}, {3, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned %v, want %v", got, want)
	}

	// Streaming build from the file end to end.
	dir := t.TempDir()
	s, err := BuildFileStreaming(filepath.Join(dir, "g.optstore"), sc, StreamBuildOptions{
		PageSize: 64, TempDir: dir, DegreeOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEdges != 3 || s.NumVertices != 4 { // ids 0..3, vertex 0 isolated
		t.Fatalf("|V|=%d |E|=%d", s.NumVertices, s.NumEdges)
	}

	// Malformed inputs error.
	bad := filepath.Join(t.TempDir(), "bad.el")
	if err := os.WriteFile(bad, []byte("1 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (EdgeListFileScanner{Path: bad}).Scan(func(u, v uint32) error { return nil }); err == nil {
		t.Fatal("malformed line: want error")
	}
	if err := (EdgeListFileScanner{Path: "/nonexistent"}).Scan(func(u, v uint32) error { return nil }); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestParseUint32(t *testing.T) {
	if _, _, err := parseUint32([]byte("99999999999")); err == nil {
		t.Fatal("overflow: want error")
	}
	x, rest, err := parseUint32([]byte("  42 7"))
	if err != nil || x != 42 || string(rest) != " 7" {
		t.Fatalf("parseUint32 = %d, %q, %v", x, rest, err)
	}
}

// TestStreamingTriangleCounts: the full pipeline — streaming build then
// OPT triangulation — must agree with the in-memory count.
func TestStreamingTriangleCounts(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 101))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.CountTrianglesReference(raw)
	var edges edgeSlice
	raw.Edges(func(u, v graph.VertexID) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	dir := t.TempDir()
	s, err := BuildFileStreaming(filepath.Join(dir, "s.optstore"), edges, StreamBuildOptions{
		PageSize: 128, TempDir: dir, RunSize: 300, DegreeOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Count triangles straight off the store pages.
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	data, err := dev.ReadPages(0, int(s.NumPages))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := s.DecodeAt(nil, nil, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(s.NumVertices)
	for _, r := range recs {
		for _, w := range r.Adj {
			if r.ID < w {
				_ = b.AddEdge(r.ID, w)
			}
		}
	}
	if got := graph.CountTrianglesReference(b.Build()); got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
}

// BenchmarkStreamingBuild times the benchmark's dense-cpu store build: the
// degree-ordered twitter-density R-MAT proxy at 12 000 vertices, written as
// a "u v" text edge list and built into a raw store from the file.
func BenchmarkStreamingBuild(b *testing.B) {
	d, err := gen.DatasetByName("twitter")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Proxy(12000)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	el := filepath.Join(dir, "g.el")
	var text []byte
	g.Edges(func(u, v graph.VertexID) bool {
		text = strconv.AppendUint(text, uint64(u), 10)
		text = append(text, ' ')
		text = strconv.AppendUint(text, uint64(v), 10)
		text = append(text, '\n')
		return true
	})
	if err := os.WriteFile(el, text, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFileStreaming(filepath.Join(dir, "g.optstore"), EdgeListFileScanner{Path: el}, StreamBuildOptions{
			PageSize: 4096, TempDir: dir, DegreeOrder: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
