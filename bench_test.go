// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per experiment id; see DESIGN.md §4 for the index), plus
// the ablation benchmarks for the design decisions DESIGN.md §5 calls out.
// The ablations that need the framework's unexported seams — the area split
// and the micro overlap — live in internal/core.
//
// The experiment benchmarks run the bench harness at a reduced scale so
// `go test -bench=. -benchmem` completes in minutes; use cmd/optbench for
// full-scale paper-style output.
package opt_test

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"github.com/optlab/opt/internal/bench"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// benchScale keeps the experiment benchmarks quick.
const benchScale = 0.25

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.DefaultConfig()
	cfg.Scale = benchScale
	cfg.WorkDir = b.TempDir()
	h, err := bench.NewHarness(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2DatasetStats(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkTable3OutputWriting(b *testing.B)    { runExperiment(b, "table3") }
func BenchmarkFig3aBufferSweep(b *testing.B)       { runExperiment(b, "fig3a") }
func BenchmarkFig3bInMemory(b *testing.B)          { runExperiment(b, "fig3b") }
func BenchmarkFig4ThreadMorphing(b *testing.B)     { runExperiment(b, "fig4") }
func BenchmarkFig5MethodsBufferSweep(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkTable4Cores(b *testing.B)            { runExperiment(b, "table4") }
func BenchmarkFig6Speedup(b *testing.B)            { runExperiment(b, "fig6") }
func BenchmarkTable5ParallelFraction(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkTable6Yahoo(b *testing.B)            { runExperiment(b, "table6") }
func BenchmarkFig7aVertexSweep(b *testing.B)       { runExperiment(b, "fig7a") }
func BenchmarkFig7bDensitySweep(b *testing.B)      { runExperiment(b, "fig7b") }
func BenchmarkFig7cClusteringSweep(b *testing.B)   { runExperiment(b, "fig7c") }
func BenchmarkTable7Distributed(b *testing.B)      { runExperiment(b, "table7") }

// benchGraph builds the shared workload for the direct and ablation
// benchmarks: a degree-ordered R-MAT graph and its store.
func benchGraph(b *testing.B, pageSize int) (*graph.Graph, *storage.Store) {
	b.Helper()
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 60_000, 9))
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st, err := storage.BuildFile(filepath.Join(b.TempDir(), "g.optstore"), g, pageSize)
	if err != nil {
		b.Fatal(err)
	}
	return g, st
}

// runAlgo runs the algorithm registered as name over st's own file device
// through engine.Run, the path every entry point takes.
func runAlgo(b *testing.B, name string, st *storage.Store, opts engine.Options) *engine.Result {
	b.Helper()
	dev, err := st.Device()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = dev.Close() }() // read-only benchmark device
	res, err := engine.Run(context.Background(), name, st, dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkOPTSerial measures the core serial framework end to end.
func BenchmarkOPTSerial(b *testing.B) {
	_, st := benchGraph(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := runAlgo(b, "OPT_serial", st, engine.Options{}); res.Triangles == 0 {
			b.Fatal("no triangles")
		}
	}
}

// BenchmarkOPTParallel measures the overlapped parallel framework.
func BenchmarkOPTParallel(b *testing.B) {
	_, st := benchGraph(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAlgo(b, "OPT", st, engine.Options{Threads: 4})
	}
}

// BenchmarkInMemoryEdgeIterator is the ideal method's CPU component.
func BenchmarkInMemoryEdgeIterator(b *testing.B) {
	g, _ := benchGraph(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.CountTrianglesReference(g) == 0 {
			b.Fatal("no triangles")
		}
	}
}

// BenchmarkStoreBuild measures slotted-page encoding throughput.
func BenchmarkStoreBuild(b *testing.B) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 60_000, 9))
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.BuildFile(filepath.Join(dir, "g.optstore"), g, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationOrdering compares the degree-based vertex ordering
// against a random one: the Schank–Wagner heuristic should cut the Eq. 3
// intersection cost substantially.
func BenchmarkAblationOrdering(b *testing.B) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 60_000, 9))
	if err != nil {
		b.Fatal(err)
	}
	ordered, _ := graph.DegreeOrder(raw)
	b.Run("degree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.CountTrianglesReference(ordered)
		}
	})
	b.Run("natural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.CountTrianglesReference(raw)
		}
	})
}

// BenchmarkAblationQueueDepth sweeps the FlashSSD channel parallelism with
// simulated latency, showing the micro-overlap benefit of deeper queues.
func BenchmarkAblationQueueDepth(b *testing.B) {
	_, st := benchGraph(b, 4096)
	lat := ssd.Latency{PerRead: 20 * time.Microsecond, PerPage: 5 * time.Microsecond}
	for _, depth := range []int{1, 4, 16} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, "OPT_serial", st, engine.Options{QueueDepth: depth, Latency: lat})
			}
		})
	}
}

// BenchmarkAblationModel compares the two iterator models through the
// framework.
func BenchmarkAblationModel(b *testing.B) {
	_, st := benchGraph(b, 4096)
	for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex} {
		b.Run(model.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, "OPT_serial", st, engine.Options{Model: model})
			}
		})
	}
}

// BenchmarkAblationIntersect compares the intersection kernels on skewed
// list pairs — the workload the adaptive kernel is tuned for.
func BenchmarkAblationIntersect(b *testing.B) {
	short := make([]uint32, 64)
	long := make([]uint32, 1<<16)
	for i := range short {
		short[i] = uint32(i * 977)
	}
	for i := range long {
		long[i] = uint32(i * 3)
	}
	var probe intersect.Prober
	longSet := probe.Fix(long, len(long), int(long[len(long)-1])+1)
	kernels := []struct {
		name string
		fn   func(a, b []uint32) int
	}{
		{"merge", intersect.MergeCount},
		{"adaptive", intersect.AdaptiveCount},
		// The edge kernel's probe: the set over the long side is built once
		// per record, not per pair, so it stays outside the timed call.
		{"probe", func(a, b []uint32) int { return intersect.AdaptiveBitmapCount(a, b, longSet) }},
	}
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fn(short, long)
			}
		})
	}
}

// BenchmarkAblationPageSize sweeps the slotted-page size.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, ps := range []int{1024, 4096, 16384} {
		ps := ps
		b.Run(fmt.Sprintf("page-%d", ps), func(b *testing.B) {
			_, st := benchGraph(b, ps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runAlgo(b, "OPT_serial", st, engine.Options{MemoryPages: int(st.NumPages)*15/100 + 2})
			}
		})
	}
}
