package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
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
							var ops int64
							got, err := CountShard(context.Background(), st, dev, grid, s, memPages, nil, &ops)
							if err != nil {
								t.Fatalf("shard %+v: %v", s, err)
							}
							if ref := grid.CountShardRef(g, s.I, s.J); got != ref {
								t.Fatalf("shard %+v: counted %d, oracle says %d", s, got, ref)
							}
							if got > 0 && ops == 0 {
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

// TestShardTaskReadsOnlyItsBlocks: a task reads exactly the pages its
// block(s) span, once each, whatever the chunk budget — a chunk larger
// than the rest of the store must not read past the block's last record.
func TestShardTaskReadsOnlyItsBlocks(t *testing.T) {
	g := workloads(t)["rmat"]
	for _, codec := range testCodecs {
		st, dev := buildStore(t, g, codec)
		for _, dim := range []int{1, 2, 3} {
			grid, err := NewGrid(dim, st.NumVertices)
			if err != nil {
				t.Fatal(err)
			}
			// pages[i] is the set of pages holding a record of block i.
			pages := make([]map[uint32]bool, dim)
			for i := range pages {
				pages[i] = map[uint32]bool{}
				lo, hi := grid.Range(i)
				for v := lo; v < hi; v++ {
					for k := 0; k < st.SpanOf(v); k++ {
						pages[i][st.FirstPageOf(v)+uint32(k)] = true
					}
				}
			}
			for _, memPages := range []int{0, 4, 2*int(st.NumPages) + 2} {
				for _, s := range grid.Shards() {
					want := len(pages[s.I])
					if s.J != s.I {
						want += len(pages[s.J])
					}
					res, err := engine.Run(context.Background(), ShardRunnerName, st, dev, engine.Options{
						ShardGrid: dim, ShardI: s.I, ShardJ: s.J, MemoryPages: memPages,
					})
					if err != nil {
						t.Fatalf("%s dim=%d m=%d shard %+v: %v", codec, dim, memPages, s, err)
					}
					if res.PagesRead != int64(want) {
						t.Errorf("%s dim=%d m=%d shard %+v: read %d pages, its blocks span %d", codec, dim, memPages, s, res.PagesRead, want)
					}
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

// TestCountShardWrongPages pins the check the block layout rests on: a
// span whose records are consistent with the directories but start at
// another page than the one read is ErrCorruptPage, never an index panic
// from offsets filled out of order. Every task loads a page past page 0,
// and the device answers the first such read with the pages from page 0.
func TestCountShardWrongPages(t *testing.T) {
	g := workloads(t)["rmat"]
	st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "g.optstore"), g, 4096, storage.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	grid, err := NewGrid(2, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range grid.Shards() {
		wrong := testutil.NewWrongPagesDevice(dev, st)
		if _, err := CountShard(context.Background(), st, syncDev(wrong), grid, s, 2, nil, nil); !errors.Is(err, storage.ErrCorruptPage) || !wrong.Redirected() {
			t.Fatalf("shard %+v: err = %v (a read redirected: %t), want storage.ErrCorruptPage", s, err, wrong.Redirected())
		}
	}
}

// TestCountShardShiftedSuccessors: a store whose successor directory moves
// two entries by +1 and −1, still summing to |E|, must fail every block-pair
// task that loads either vertex's block with storage.ErrCorruptPage — the
// block load takes n≻ off the directory, so a lying entry would copy a
// neighbor below the vertex into n≻ or drop one above it — and leave every
// other task's count exact.
func TestCountShardShiftedSuccessors(t *testing.T) {
	g := workloads(t)["rmat"]
	for _, codec := range testCodecs {
		st, _ := buildStore(t, g, codec)
		bad, up, down := testutil.ShiftedSuccStore(t, st)
		dev, err := bad.Device()
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = dev.Close() }()
		for _, dim := range []int{1, 2} {
			grid, err := NewGrid(dim, bad.NumVertices)
			if err != nil {
				t.Fatal(err)
			}
			holds := func(block int, v uint32) bool { lo, hi := grid.Range(block); return lo <= v && v < hi }
			for _, s := range grid.Shards() {
				lying := holds(s.I, up) || holds(s.I, down) || holds(s.J, up) || holds(s.J, down)
				got, err := CountShard(context.Background(), bad, syncDev(dev), grid, s, 4, nil, nil)
				if lying && !errors.Is(err, storage.ErrCorruptPage) {
					t.Fatalf("%s/dim=%d: shard %+v holds vertex %d or %d: err = %v, want storage.ErrCorruptPage", codec, dim, s, up, down, err)
				}
				if !lying {
					if err != nil {
						t.Fatalf("%s/dim=%d: shard %+v: %v", codec, dim, s, err)
					}
					if want := grid.CountShardRef(g, s.I, s.J); got != want {
						t.Fatalf("%s/dim=%d: shard %+v counted %d, want %d", codec, dim, s, got, want)
					}
				}
			}
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

// cancelAt is a context that cancels itself on the at-th call of its Err
// method (never when at is 0) and counts the calls: a cancellation that
// lands at the same point of CountShard's loops in every run.
type cancelAt struct {
	context.Context
	cancel    context.CancelFunc
	calls, at int
}

func newCancelAt(at int) *cancelAt {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAt{Context: ctx, cancel: cancel, at: at}
}

func (c *cancelAt) Err() error {
	if c.calls++; c.calls == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCountShardCancelKeepsTallies cancels a grid-1 task after its block
// is loaded, halfway through the kernel's rows: the partial count
// CountShard returns must be exactly what its sink received, in its one
// TrianglesFound event.
func TestCountShardCancelKeepsTallies(t *testing.T) {
	g := workloads(t)["rmat"]
	st, base := buildStore(t, g, storage.CodecRaw)
	grid, err := NewGrid(1, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	counted := &ssd.FaultyDevice{PageDevice: base}
	dry := newCancelAt(0)
	full, err := CountShard(dry, st, syncDev(counted), grid, Shard{}, 4, nil, nil)
	dry.cancel()
	if err != nil {
		t.Fatal(err)
	}
	// The load checks the context once per read, the kernel once per row.
	loaded := int(counted.Reads())
	if rows := dry.calls - loaded; rows < 2 {
		t.Fatalf("%d context checks after %d reads: no row to cancel at", rows, loaded)
	}
	ctx := newCancelAt(loaded + (dry.calls-loaded)/2)
	defer ctx.cancel()
	sink := &testutil.TriangleSink{}
	got, err := CountShard(ctx, st, syncDev(base), grid, Shard{}, 4, sink, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got <= 0 || got >= full {
		t.Fatalf("cancelled halfway through the rows, the task counted %d of %d triangles", got, full)
	}
	if events, received := sink.Counts(); received != got || events != 1 {
		t.Fatalf("partial count %d, the sink received %d in %d events, want it in 1", got, received, events)
	}
}

// TestCancelShardRunnerAfterLoad cancels a Shard2D task through the engine
// once its block is loaded — the sink cancels on the PagesRead event of the
// last page — so only the kernel's row loop can observe it: the run context
// must reach CountShard, which then stops before counting a triangle and
// reports context.Canceled.
func TestCancelShardRunnerAfterLoad(t *testing.T) {
	testutil.LeakCheck(t, "cancelled shard task")
	g := workloads(t)["rmat"]
	st, dev := buildStore(t, g, storage.CodecRaw)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var read int64
	sink := events.Func(func(e events.Event) {
		if e.Kind == events.PagesRead {
			if read += e.N; read == int64(st.NumPages) {
				cancel()
			}
		}
	})
	res, err := engine.Run(ctx, ShardRunnerName, st, dev, engine.Options{Events: sink})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if read != int64(st.NumPages) {
		t.Fatalf("cancelled after %d of %d pages: the load did not finish", read, st.NumPages)
	}
	if res == nil || res.Triangles != 0 {
		t.Fatalf("cancelled before the first row, the task reported %+v", res)
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
