package cluster

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
)

// serveMixJob builds the raw store of the serve-mix benchmark workload — a
// 4 000-vertex lj-density R-MAT graph on 4096-byte pages — and returns one
// grid-2 distributed job over it: its three Shard2D tasks, each run as an
// agent runs it, through the engine with a page budget above the store's
// size, as the benchmark's distributed jobs ask.
func serveMixJob(tb testing.TB) func() {
	tb.Helper()
	d, err := gen.DatasetByName("lj")
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(4000, int64(4000*d.Density), 1))
	if err != nil {
		tb.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st, err := storage.BuildFileCodec(filepath.Join(tb.TempDir(), "g.optstore"), g, 4096, storage.CodecRaw)
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := st.Device()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = dev.Close() })
	grid, err := NewGrid(2, st.NumVertices)
	if err != nil {
		tb.Fatal(err)
	}
	want := graph.CountTrianglesReference(g)
	return func() {
		var sum int64
		for _, s := range grid.Shards() {
			res, err := engine.Run(context.Background(), ShardRunnerName, st, dev, engine.Options{
				MemoryPages: int(st.NumPages) + 1, ShardGrid: 2, ShardI: s.I, ShardJ: s.J,
			})
			if err != nil {
				tb.Fatalf("shard %+v: %v", s, err)
			}
			sum += res.Triangles
		}
		if sum != want {
			tb.Fatalf("tasks sum to %d triangles, reference %d", sum, want)
		}
	}
}

// TestShardTasksAllocationBound pins what a warm distributed job costs an
// agent's heap: the three tasks read every chunk into one pooled buffer,
// decode into pooled scratch and keep only n≻ of each block, so they
// allocate the blocks' id arenas and little else. Reading each chunk into
// a fresh buffer and keeping whole decoded records takes ≈ 7 MB in ≈ 240
// mallocs per job.
func TestShardTasksAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	job := serveMixJob(t)
	job()
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	mallocs := (after.Mallocs - before.Mallocs) / rounds
	t.Logf("a warm grid-2 job's three tasks: %d KB in %d mallocs", bytes>>10, mallocs)
	if bytes > 2<<20 || mallocs > 64 {
		t.Fatalf("a warm grid-2 job's three tasks allocate %d bytes in %d mallocs, want ≤ 2 MB and ≤ 64", bytes, mallocs)
	}
}

// BenchmarkShardTask runs the grid-2 distributed job of
// TestShardTasksAllocationBound per op, so the bench smoke shows its B/op
// and allocs/op.
func BenchmarkShardTask(b *testing.B) {
	job := serveMixJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}
