package gchi

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
)

// TestGraphChiTaskDonePerRecord: one per-record kernel at every thread
// count — identical Triangles and IntersectOps — and, with CollectIterStats,
// one TaskDone per record streamed through the batch region, grouped by
// batches of at most batchRecords.
func TestGraphChiTaskDonePerRecord(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 8000, 17))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	st, err := storage.BuildFile(filepath.Join(t.TempDir(), "g.optstore"), g, 128)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()

	run := func(threads, memPages int, record bool) (res *engine.Result, perBatch map[int]int) {
		t.Helper()
		var mu sync.Mutex
		perBatch = map[int]int{}
		res, err := engine.Run(context.Background(), "GraphChi-Tri", st, dev, engine.Options{
			MemoryPages: memPages, Threads: threads, TempDir: t.TempDir(), CollectIterStats: record,
			Events: events.Func(func(e events.Event) {
				if e.Kind == events.TaskDone {
					mu.Lock()
					perBatch[e.Iteration]++
					mu.Unlock()
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Fatalf("threads=%d mem=%d: %d triangles, want %d", threads, memPages, res.Triangles, want)
		}
		return res, perBatch
	}
	records := func(perBatch map[int]int) (n int) {
		for b, c := range perBatch {
			if c > batchRecords || b < 0 || b >= len(perBatch) {
				t.Errorf("batch %d of %d holds %d records, at most %d fit", b, len(perBatch), c, batchRecords)
			}
			n += c
		}
		return n
	}

	// Several pivot blocks: every pass streams what is left of the graph.
	res1, batches1 := run(1, 8, true)
	if res1.Iterations < 2 {
		t.Fatalf("%d pivot blocks, the test needs several", res1.Iterations)
	}
	if len(batches1) <= res1.Iterations {
		t.Fatalf("%d batches over %d passes: no pass filled a batch of %d", len(batches1), res1.Iterations, batchRecords)
	}
	for _, threads := range []int{2, 4} {
		res, batches := run(threads, 8, true)
		if res.IntersectOps != res1.IntersectOps || records(batches) != records(batches1) || len(batches) != len(batches1) {
			t.Errorf("threads=%d: %d ops and %d records in %d batches; one thread had %d, %d and %d",
				threads, res.IntersectOps, records(batches), len(batches), res1.IntersectOps, records(batches1), len(batches1))
		}
	}
	if _, quiet := run(2, 8, false); len(quiet) != 0 {
		t.Errorf("%d TaskDone events without CollectIterStats", records(quiet))
	}

	// One pivot block holding the whole graph: the single pass streams
	// every vertex that has a neighbour, once.
	nonIsolated := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) > 0 {
			nonIsolated++
		}
	}
	whole, batches := run(2, 4*int(st.NumPages), true)
	if whole.Iterations != 1 || records(batches) != nonIsolated {
		t.Errorf("whole-graph pivot: %d blocks, %d TaskDone events; want 1 and %d", whole.Iterations, records(batches), nonIsolated)
	}
}
