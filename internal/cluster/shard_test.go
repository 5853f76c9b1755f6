package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

const testPageSize = 128

var testCodecs = []string{storage.CodecRaw, storage.CodecDeltaVarint}

func buildStore(t testing.TB, g *graph.Graph, codec string) (*storage.Store, *ssd.FileDevice) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.optstore")
	st, err := storage.BuildFileCodec(path, g, testPageSize, codec)
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

// syncDev is the synchronous device CountShard reads through, with no
// latency and no outlets.
func syncDev(dev ssd.PageDevice) *ssd.SyncDevice { return ssd.NewSyncDevice(dev, ssd.AsyncOptions{}) }

// TestCountShardMatchesOracle is the store-backed differential: every
// block-pair task, over every workload × codec × grid × chunk budget, must
// match the in-memory oracle exactly, and the tasks must sum to the
// reference count.
func TestCountShardMatchesOracle(t *testing.T) {
	for name, g := range workloads(t) {
		want := graph.CountTrianglesReference(g)
		for _, codec := range testCodecs {
			st, base := buildStore(t, g, codec)
			dev := syncDev(base)
			for _, dim := range []int{1, 2, 4} {
				for _, memPages := range []int{0, 4, 64} {
					t.Run(fmt.Sprintf("%s/%s/dim=%d/m=%d", name, codec, dim, memPages), func(t *testing.T) {
						grid, err := NewGrid(dim, st.NumVertices)
						if err != nil {
							t.Fatal(err)
						}
						var sum int64
						for _, s := range grid.Shards() {
							res := &engine.Result{}
							got, err := CountShard(context.Background(), st, dev, grid, s, memPages, nil, res)
							if err != nil {
								t.Fatalf("shard %+v: %v", s, err)
							}
							if ref := grid.CountShardRef(g, s.I, s.J); got != ref {
								t.Fatalf("shard %+v: counted %d, oracle says %d", s, got, ref)
							}
							if got > 0 && res.IntersectOps == 0 {
								t.Fatalf("shard %+v: %d triangles with zero intersect ops", s, got)
							}
							sum += got
						}
						if sum != want {
							t.Fatalf("shard sum %d, reference %d", sum, want)
						}
					})
				}
			}
		}
	}
}

// TestShardRunnerViaEngine drives the registered Shard2D runner through the
// engine front door: the default 1×1 grid is a full count, and explicit
// (grid, i, j) options count exactly that task.
func TestShardRunnerViaEngine(t *testing.T) {
	g := workloads(t)["rmat"]
	want := graph.CountTrianglesReference(g)
	st, dev := buildStore(t, g, storage.CodecRaw)

	res, err := engine.Run(context.Background(), ShardRunnerName, st, dev, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("1x1 count = %d, want %d", res.Triangles, want)
	}
	if res.PagesRead == 0 || res.Iterations != 1 {
		t.Fatalf("result counters not filled: %+v", res)
	}
	if res.PagesRead != int64(st.NumPages) {
		t.Fatalf("a 1x1 run read %d pages, the store has %d", res.PagesRead, st.NumPages)
	}

	grid, err := NewGrid(3, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range grid.Shards() {
		res, err := engine.Run(context.Background(), ShardRunnerName, st, dev, engine.Options{
			ShardGrid: 3, ShardI: s.I, ShardJ: s.J,
		})
		if err != nil {
			t.Fatalf("shard %+v: %v", s, err)
		}
		if ref := grid.CountShardRef(g, s.I, s.J); res.Triangles != ref {
			t.Fatalf("shard %+v: %d, oracle %d", s, res.Triangles, ref)
		}
		sum += res.Triangles
	}
	if sum != want {
		t.Fatalf("engine shard sum %d, reference %d", sum, want)
	}

	// Shard options outside the grid are rejected by option validation
	// before the runner sees them.
	if _, err := engine.Run(context.Background(), ShardRunnerName, st, dev, engine.Options{ShardGrid: 2, ShardI: 1, ShardJ: 0}); err == nil {
		t.Fatal("inverted shard (1, 0) accepted")
	}
	if _, err := engine.Run(context.Background(), ShardRunnerName, st, dev, engine.Options{ShardGrid: 2, ShardJ: 2}); err == nil {
		t.Fatal("shard j == grid accepted")
	}
}

func TestCountShardValidation(t *testing.T) {
	g := graph.Complete(10)
	st, base := buildStore(t, g, storage.CodecRaw)
	dev := syncDev(base)
	grid, err := NewGrid(2, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountShard(context.Background(), st, dev, grid, Shard{I: 1, J: 0}, 0, nil, nil); err == nil {
		t.Fatal("inverted shard accepted")
	}
	if _, err := CountShard(context.Background(), st, dev, grid, Shard{I: 0, J: 2}, 0, nil, nil); err == nil {
		t.Fatal("out-of-grid shard accepted")
	}
	wrong, err := NewGrid(2, st.NumVertices+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountShard(context.Background(), st, dev, wrong, Shard{}, 0, nil, nil); err == nil {
		t.Fatal("grid/store vertex-count mismatch accepted")
	}
}

// TestCountShardDeviceFault pins error propagation: an injected device
// failure must surface wrapped (never a silent miscount), from every read
// position of the run.
func TestCountShardDeviceFault(t *testing.T) {
	g := workloads(t)["k20"]
	st, dev := buildStore(t, g, storage.CodecRaw)
	grid, err := NewGrid(2, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	clean := &ssd.FaultyDevice{PageDevice: dev}
	want, err := CountShard(context.Background(), st, syncDev(clean), grid, Shard{I: 0, J: 1}, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads := clean.Reads()
	if reads == 0 {
		t.Fatal("clean run issued no reads")
	}
	for k := int64(1); k <= reads; k++ {
		faulty := &ssd.FaultyDevice{PageDevice: dev, FailAt: k}
		got, err := CountShard(context.Background(), st, syncDev(faulty), grid, Shard{I: 0, J: 1}, 4, nil, nil)
		if !errors.Is(err, ssd.ErrInjected) {
			t.Fatalf("FailAt=%d: err = %v, want ErrInjected", k, err)
		}
		if got != 0 {
			t.Fatalf("FailAt=%d: partial load reported %d triangles (full run: %d)", k, got, want)
		}
	}
}

func TestCountShardCancellation(t *testing.T) {
	g := workloads(t)["k20"]
	st, dev := buildStore(t, g, storage.CodecRaw)
	grid, err := NewGrid(1, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountShard(ctx, st, syncDev(dev), grid, Shard{}, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestShardRunnerHonoursLatency: Options.Latency is charged on every page
// access of a Shard2D run, as on every other runner's, so a run that reads
// the store in k requests takes at least k × PerRead, less what the
// throttle may credit back for oversleeping.
func TestShardRunnerHonoursLatency(t *testing.T) {
	g := workloads(t)["rmat"]
	st, dev := buildStore(t, g, storage.CodecRaw)
	counted := &ssd.FaultyDevice{PageDevice: dev}
	lat := ssd.Latency{PerRead: 2 * time.Millisecond}
	start := time.Now()
	res, err := engine.Run(context.Background(), ShardRunnerName, st, counted, engine.Options{MemoryPages: 32, Latency: lat})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.CountTrianglesReference(g); res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
	k := counted.Reads()
	if k < 8 {
		t.Fatalf("the run read the store in %d requests: too few to tell latency from noise", k)
	}
	if floor := time.Duration(k)*lat.PerRead - 4*ssd.SleepQuantum; elapsed < floor {
		t.Fatalf("%d reads at %v each took %v, want ≥ %v", k, lat.PerRead, elapsed, floor)
	}
}
