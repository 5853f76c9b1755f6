package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
)

// loadSnapshot is what one iteration's load left behind: the internal
// range, n≻ of every internal vertex in id order, and V_ex ascending.
type loadSnapshot struct {
	lo, hi uint32
	succ   [][]uint32
	vex    []uint32
}

// loadSnapshots runs o over st iteration by iteration, as runner.run does,
// and returns what every iteration's load left. The iteration's tail reads
// the internal area and V_ex but never writes them, so what the iteration
// leaves is what its load left.
func loadSnapshots(t *testing.T, st *storage.Store, o optRunner, opts engine.Options) []loadSnapshot {
	t.Helper()
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	r := newRunner(context.Background(), st, dev, o, opts)
	defer r.close()
	var snaps []loadSnapshot
	for it, lo := 0, uint32(0); lo < st.NumPages; it++ {
		hi, ids := r.internalRange(lo)
		if _, err := r.iteration(it, lo, hi, ids); err != nil {
			t.Fatal(err)
		}
		snap := loadSnapshot{lo: lo, hi: hi, vex: r.vexSet.AppendTo(nil)}
		for v := r.ctx.loVertex; v < r.ctx.hiVertex; v++ {
			snap.succ = append(snap.succ, slices.Clone(r.ctx.internalSucc(v)))
		}
		snaps = append(snaps, snap)
		lo = hi
	}
	return snaps
}

// TestInternalLoadParallelMatchesSerial: OPT on more than one thread loads
// the internal area on all of its workers — each chunk's lists at their own
// offset into the arena, candidates into a set per running task, merged
// once per load — and OPT_serial on the callback thread alone, as OPT on
// one thread does. After every iteration's load both must hold the same n≻
// for every internal vertex (the graph's own) and the same V_ex, at 1, 2
// and 4 threads, on either codec, under every model.
func TestInternalLoadParallelMatchesSerial(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<11, 14_000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for _, codec := range storage.Codecs() {
		st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), codec+".optstore"), g, 256, codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex, engine.ModelMGTInstance} {
			opts := engine.Options{Model: model, MemoryPages: int(st.NumPages) * 8 / 100}
			want := loadSnapshots(t, st, serial, opts)
			if len(want) < 3 {
				t.Fatalf("%s/%s: %d iterations, the fixture exercises nothing", codec, modelNames[model], len(want))
			}
			for _, snap := range want {
				for i, succ := range snap.succ {
					v := st.FirstRecordOf(snap.lo) + uint32(i)
					if !slices.Equal(succ, g.NeighborsAfter(v)) {
						t.Fatalf("%s/%s: Serial load holds n≻(%d) = %v, the graph has %v", codec, modelNames[model], v, succ, g.NeighborsAfter(v))
					}
				}
			}
			for _, threads := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/threads=%d", codec, modelNames[model], threads), func(t *testing.T) {
					opts := opts
					opts.Threads = threads
					got := loadSnapshots(t, st, parallel, opts)
					if len(got) != len(want) {
						t.Fatalf("%d iterations, Serial took %d", len(got), len(want))
					}
					for it, snap := range got {
						ref := want[it]
						if snap.lo != ref.lo || snap.hi != ref.hi {
							t.Fatalf("iteration %d: range [%d,%d), Serial loaded [%d,%d)", it, snap.lo, snap.hi, ref.lo, ref.hi)
						}
						if !slices.EqualFunc(snap.succ, ref.succ, slices.Equal) {
							t.Fatalf("iteration %d: the internal area differs from Serial's", it)
						}
						if !slices.Equal(snap.vex, ref.vex) {
							t.Fatalf("iteration %d: V_ex has %d candidates, Serial's %d", it, len(snap.vex), len(ref.vex))
						}
					}
				})
			}
		}
	}
}

// TestInternalLoadParallelSteadyStateAllocs is TestInternalLoadSteadyStateAllocs
// for OPT's load, which runs under a task scheduler: beside the scheduler,
// its workers and one completion closure per coalesced read, each chunk
// may cost its one task closure — what the external pass pays per chunk —
// and nothing more. The candidate sets are allocated by the first load and
// reused.
func TestInternalLoadParallelSteadyStateAllocs(t *testing.T) {
	if raceEnabled || poisonEnabled {
		t.Skip("race instrumentation and the optpoison guard both make recycled chunks allocate")
	}
	_, st := sparseStore(t)
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	rc := &readCounter{PageDevice: dev}
	r := newRunner(context.Background(), st, rc, parallel, engine.Options{Threads: 2, MemoryPages: int(st.NumPages) * 8 / 100})
	defer r.close()
	hi, ids := r.internalRange(0)
	load := func() {
		r.ctx.beginIteration(0, hi, ids)
		r.vexSet.Clear()
		r.loadInternal(0, 0, hi)
	}
	load() // grows the scratch, the free lists, the candidate sets and the device's arena
	before := rc.reads.Load()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, load)
	reads := float64(rc.reads.Load()-before) / (runs + 1) // AllocsPerRun calls once more to warm up
	chunks := len(r.taskBounds) - 1
	t.Logf("a warm load of %d chunks in %.0f reads on 2 threads allocates %.0f times", chunks, reads, allocs)
	if chunks < 2*int(reads)+8 {
		t.Fatalf("%d chunks in %.0f reads: the fixture exercises nothing", chunks, reads)
	}
	if limit := reads + float64(chunks) + 12; allocs > limit {
		t.Fatalf("%.0f allocations, want ≤ %.0f reads + %d chunks + 12", allocs, reads, chunks)
	}
}

// TestTailPassSteadyStateAllocs pins what a warm iteration tail under the
// task scheduler allocates: one task closure per internal chunk and per
// external request and one completion closure per coalesced read, beside a
// fixed 11 (the scheduler, its two queues, its workers, the pass). The
// external pool keeps its entries by value, so admitting a decoded chunk
// costs nothing (an entry per chunk before). The queues are sized for
// every task the tail submits, so no submit grows one: queues grown from
// empty cost an allocation per doubling, 12 more per tail here.
func TestTailPassSteadyStateAllocs(t *testing.T) {
	if raceEnabled || poisonEnabled {
		t.Skip("race instrumentation and the optpoison guard both make recycled chunks allocate")
	}
	_, st := sparseStore(t)
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	rc := &readCounter{PageDevice: dev}
	r := newRunner(context.Background(), st, rc, parallel, engine.Options{Threads: 2, MemoryPages: int(st.NumPages) * 8 / 100})
	defer r.close()
	hi, ids := r.internalRange(0)
	r.ctx.beginIteration(0, hi, ids)
	r.vexSet.Clear()
	r.loadInternal(0, 0, hi)
	reqs := r.buildRequests()
	var stat engine.IterationStat
	tail := func() { r.runParallel(r.newIOSched(0, r.external), reqs, &stat) }
	tail() // grows the pool, the scratch and the device's arena
	before := rc.reads.Load()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, tail)
	perRun := func(n int64) float64 { return float64(n) / (runs + 1) } // AllocsPerRun calls once more to warm up
	reads := perRun(rc.reads.Load() - before)
	expected := reads + float64(len(r.taskBounds)-1+len(reqs))
	t.Logf("a warm tail of %d chunks and %d requests in %.0f reads on 2 threads allocates %.0f times, %.1f beyond the expected",
		len(r.taskBounds)-1, len(reqs), reads, allocs, allocs-expected)
	if allocs > expected+14 {
		t.Fatalf("%.0f allocations, want ≤ %.0f expected + 14: does a submit grow a queue?", allocs, expected)
	}
}
