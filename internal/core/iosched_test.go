package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/buffer"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
)

// newTestRunner builds a runner over st's own file device. The caller must
// invoke the returned cleanup.
func newTestRunner(t *testing.T, g *graph.Graph, pageSize int, opts Options) (*runner, func()) {
	t.Helper()
	st := buildStore(t, g, pageSize)
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(context.Background(), st, dev, opts)
	return r, func() {
		r.close()
		_ = dev.Close()
	}
}

// allVertices returns every vertex id of the store's graph, the V_ex of a
// hypothetical iteration with an empty internal area.
func allVertices(n int) []uint32 {
	vex := make([]uint32, n)
	for i := range vex {
		vex[i] = uint32(i)
	}
	return vex
}

// TestCoalesceGrouping drives buildRequests + coalesce directly and checks
// the structural invariants of the grouping: groups cover the request list
// exactly once, constituents within a group touch consecutive pages,
// no group exceeds the page cap, and groups come out in descending page
// order (the Algorithm 4 loading order at read granularity).
func TestCoalesceGrouping(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	const maxCoalesce = 4
	r, cleanup := newTestRunner(t, g, 128, Options{Mode: Serial, MemoryPages: 64, MaxCoalescePages: maxCoalesce})
	defer cleanup()

	reqs := r.buildRequests(allVertices(r.st.NumVertices))
	if len(reqs) == 0 {
		t.Fatal("empty request list")
	}
	groups, residents := r.coalesce(reqs)
	if len(residents) != 0 {
		t.Fatalf("residents = %d on a cold pool", len(residents))
	}

	total := 0
	multi := 0
	for gi, grp := range groups {
		if len(grp.reqs) != len(grp.spans) || grp.left != len(grp.reqs) {
			t.Fatalf("group %d: reqs=%d spans=%d left=%d", gi, len(grp.reqs), len(grp.spans), grp.left)
		}
		if grp.first != grp.reqs[0].first {
			t.Fatalf("group %d: first=%d, reqs[0].first=%d", gi, grp.first, grp.reqs[0].first)
		}
		pages := 0
		next := grp.first
		for si, req := range grp.reqs {
			if req.first != next {
				t.Fatalf("group %d seg %d: first=%d, want consecutive %d", gi, si, req.first, next)
			}
			if grp.spans[si] != req.span {
				t.Fatalf("group %d seg %d: span=%d, req.span=%d", gi, si, grp.spans[si], req.span)
			}
			next += uint32(req.span)
			pages += req.span
		}
		if pages != grp.pages {
			t.Fatalf("group %d: pages=%d, sum of spans=%d", gi, grp.pages, pages)
		}
		if len(grp.reqs) > 1 && pages > maxCoalesce {
			t.Fatalf("group %d: %d pages exceeds cap %d", gi, pages, maxCoalesce)
		}
		if gi > 0 && grp.first >= groups[gi-1].first {
			t.Fatalf("group %d: first=%d not descending after %d", gi, grp.first, groups[gi-1].first)
		}
		if len(grp.reqs) > 1 {
			multi++
		}
		total += len(grp.reqs)
	}
	if total != len(reqs) {
		t.Fatalf("groups cover %d requests, list has %d", total, len(reqs))
	}
	if multi == 0 {
		t.Fatal("no multi-request group formed on a dense request list")
	}
	// Flattening the descending groups and reversing must reproduce L.
	flat := make([]extReq, 0, total)
	for i := len(groups) - 1; i >= 0; i-- {
		flat = append(flat, groups[i].reqs...)
	}
	for i := range reqs {
		if flat[i].first != reqs[i].first {
			t.Fatalf("flattened groups diverge from L at %d: %d vs %d", i, flat[i].first, reqs[i].first)
		}
	}
}

// TestCoalesceSplitsAtResident checks that a pool-resident chunk is served
// without I/O and breaks the consecutive run it interrupts.
func TestCoalesceSplitsAtResident(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	r, cleanup := newTestRunner(t, g, 128, Options{Mode: Serial, MemoryPages: 64})
	defer cleanup()

	reqs := r.buildRequests(allVertices(r.st.NumVertices))
	if len(reqs) < 3 {
		t.Fatalf("need at least 3 requests, got %d", len(reqs))
	}
	mid := reqs[len(reqs)/2]
	r.pool.Insert(&buffer.Chunk{FirstPage: mid.first, NumPages: mid.span})
	groups, residents := r.coalesce(reqs)
	if len(residents) != 1 || residents[0].req.first != mid.first {
		t.Fatalf("residents = %+v, want exactly chunk %d", residents, mid.first)
	}
	if got := r.pool.PinCount(mid.first); got != 2 {
		t.Fatalf("resident pin count = %d, want 2 (insert + coalesce)", got)
	}
	total := 0
	for _, grp := range groups {
		for _, req := range grp.reqs {
			if req.first == mid.first {
				t.Fatalf("resident request %d also grouped for I/O", mid.first)
			}
			total++
		}
	}
	if total != len(reqs)-1 {
		t.Fatalf("groups cover %d requests, want %d", total, len(reqs)-1)
	}
}

// TestOPTCoalescingReducesReads is the headline acceptance check: on the
// default workload, coalescing plus read-ahead must cut the number of device
// read submissions by at least 3x against the uncoalesced scheduler, at
// identical triangle counts.
func TestOPTCoalescingReducesReads(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	budget := int(st.NumPages)/4 + 2

	run := func(opts Options) (*Result, *metrics.Collector) {
		mx := metrics.NewCollector()
		opts.Metrics = mx
		res, err := RunFile(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, mx
	}
	baseRes, baseMx := run(Options{Mode: Serial, MemoryPages: budget, MaxCoalescePages: 1, PrefetchDepth: 1})
	coalRes, coalMx := run(Options{Mode: Serial, MemoryPages: budget})

	if baseRes.Triangles != coalRes.Triangles {
		t.Fatalf("triangles diverge: baseline %d, coalesced %d", baseRes.Triangles, coalRes.Triangles)
	}
	if baseMx.CoalescedReads() != 0 {
		t.Fatalf("baseline coalesced %d reads with MaxCoalescePages=1", baseMx.CoalescedReads())
	}
	if coalMx.CoalescedReads() == 0 {
		t.Fatal("coalesced run recorded no coalesced reads")
	}
	if coalMx.CoalescedPages() <= coalMx.CoalescedReads() {
		t.Fatalf("coalesced pages %d should exceed coalesced reads %d", coalMx.CoalescedPages(), coalMx.CoalescedReads())
	}
	if base, coal := baseMx.AsyncReads(), coalMx.AsyncReads(); coal*3 > base {
		t.Fatalf("read submissions: baseline %d, coalesced %d — want >= 3x reduction", base, coal)
	}
	if base, coal := baseMx.PagesRead(), coalMx.PagesRead(); coal > base {
		t.Fatalf("coalescing increased pages read: %d > %d", coal, base)
	}
}

// TestOPTPrefetchAccounting checks that read-ahead actually happens (hits
// recorded) under the default PrefetchDepth and never happens when the
// window is one read deep.
func TestOPTPrefetchAccounting(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	budget := int(st.NumPages)/4 + 2

	mx := metrics.NewCollector()
	if _, err := RunFile(st, Options{Mode: Serial, MemoryPages: budget, MaxCoalescePages: 4, Metrics: mx}); err != nil {
		t.Fatal(err)
	}
	if mx.PrefetchHits() == 0 {
		t.Fatal("default read-ahead recorded no prefetch hits")
	}
	if mx.PrefetchWasted() != 0 {
		t.Fatalf("error-free run wasted %d prefetches", mx.PrefetchWasted())
	}

	mx = metrics.NewCollector()
	if _, err := RunFile(st, Options{Mode: Serial, MemoryPages: budget, PrefetchDepth: 1, Metrics: mx}); err != nil {
		t.Fatal(err)
	}
	if mx.PrefetchHits() != 0 || mx.PrefetchWasted() != 0 {
		t.Fatalf("PrefetchDepth=1 still prefetched: hits=%d wasted=%d", mx.PrefetchHits(), mx.PrefetchWasted())
	}
}

// TestOPTCoalescedReadFailure injects device faults into runs where
// coalescing is active. The error must surface, and the run must terminate
// cleanly — a double retirement of any constituent would close the
// scheduler's done channel twice and panic.
func TestOPTCoalescedReadFailure(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()

	for _, mode := range []Mode{Serial, Parallel} {
		for _, every := range []int64{1, 4, 9} {
			faulty := &ssd.FaultyDevice{PageDevice: base, FailEveryN: every}
			_, err := Run(st, faulty, Options{Mode: mode, Threads: 2, MemoryPages: 16})
			if !errors.Is(err, ssd.ErrInjected) {
				t.Fatalf("%v FailEveryN=%d: err = %v, want ErrInjected", mode, every, err)
			}
		}
	}
}

// TestOPTSchedulerKnobMatrix sweeps the I/O-scheduler knobs (including the
// synchronous ablation) and demands the reference triangle count from every
// combination.
func TestOPTSchedulerKnobMatrix(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 9))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	st := buildStore(t, g, 128)
	for _, mode := range []Mode{Serial, Parallel} {
		for _, coalesce := range []int{0, 1, 3} {
			for _, depth := range []int{0, 1, 2} {
				for _, sync := range []bool{false, true} {
					res, err := RunFile(st, Options{
						Mode: mode, Threads: 2, MemoryPages: 16,
						MaxCoalescePages: coalesce, PrefetchDepth: depth,
						DisableMicroOverlap: sync,
					})
					name := fmt.Sprintf("%v coalesce=%d depth=%d sync=%v", mode, coalesce, depth, sync)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Triangles != want {
						t.Fatalf("%s: triangles = %d, want %d", name, res.Triangles, want)
					}
				}
			}
		}
	}
}

// TestExternalSteadyStateAllocs pins the zero-allocation guarantee of the
// external hot path: with scratch buffers and hub sets warmed up,
// ExternalTriangle (and its internal sibling) must not allocate.
func TestExternalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomises sync.Pool caching")
	}
	g := graph.Complete(600) // every adjacency list is a hub (599 >= hubDegree)
	st := buildStore(t, g, 512)
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	data, err := dev.ReadPages(0, int(st.NumPages))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(st, &CountingOutput{}, nil)
	ctx.beginIteration(0, st.NumPages)
	for _, rec := range recs {
		ctx.addInternal(rec)
	}
	model := edgeIteratorModel{}
	v := recs[100] // n≻ and n≺ both populated, hub-sized fixed side

	if allocs := testing.AllocsPerRun(10, func() { model.ExternalTriangle(ctx, v) }); allocs != 0 {
		t.Fatalf("ExternalTriangle: %v allocs/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { model.InternalTriangle(ctx, v) }); allocs != 0 {
		t.Fatalf("InternalTriangle: %v allocs/op at steady state, want 0", allocs)
	}
}

// TestBuildRequestsSteadyStateAllocs checks the other half of the
// zero-allocation contract: rebuilding the request list and regrouping it
// reuses the runner's scratch arrays once they have grown to size.
func TestBuildRequestsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	r, cleanup := newTestRunner(t, g, 128, Options{Mode: Serial, MemoryPages: 64})
	defer cleanup()
	vex := allVertices(r.st.NumVertices)
	if allocs := testing.AllocsPerRun(10, func() {
		reqs := r.buildRequests(vex)
		r.coalesce(reqs)
	}); allocs != 0 {
		t.Fatalf("buildRequests+coalesce: %v allocs/op at steady state, want 0", allocs)
	}
}

func BenchmarkBuildAndCoalesce(b *testing.B) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(b, g, 128)
	dev, err := st.Device()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	r := newRunner(context.Background(), st, dev, Options{Mode: Serial, MemoryPages: 64})
	defer r.close()
	vex := allVertices(st.NumVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := r.buildRequests(vex)
		r.coalesce(reqs)
	}
}

func BenchmarkOPTSerialCoalesced(b *testing.B) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(b, g, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFile(st, Options{Mode: Serial, MemoryPages: int(st.NumPages)/4 + 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSchedulerEventsCarryIteration pins the per-job timeline contract: every
// CoalescedRead, Prefetch* and Morph event is stamped with the index of the
// IterationStart…IterationEnd bracket it fires in — from the I/O scheduler
// as much as from the internal-area loader — and the collector's counters
// equal the sums of those events, since both are fed by one runner.note.
func TestSchedulerEventsCarryIteration(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	budget := int(st.NumPages)/4 + 2

	for _, mode := range []Mode{Serial, Parallel} {
		t.Run(mode.String(), func(t *testing.T) {
			var mu sync.Mutex
			open := -1 // index of the open iteration bracket, -1 between brackets
			sums := map[events.Kind]int64{}
			counts := map[events.Kind]int64{}
			rec := events.Func(func(e events.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch e.Kind {
				case events.IterationStart:
					open = e.Iteration
				case events.IterationEnd:
					open = -1
				case events.CoalescedRead, events.PrefetchHit, events.PrefetchWasted, events.Morph:
					if e.Iteration != open {
						t.Errorf("%v event stamped iteration %d inside bracket %d", e.Kind, e.Iteration, open)
					}
					sums[e.Kind] += e.N
					counts[e.Kind]++
				}
			})
			mx := metrics.NewCollector()
			res, err := RunFile(st, Options{Mode: mode, Threads: 2, MemoryPages: budget, MaxCoalescePages: 4, Metrics: mx, Events: rec})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations < 3 {
				t.Fatalf("only %d iterations; the test needs at least 3", res.Iterations)
			}
			if counts[events.CoalescedRead] == 0 || counts[events.PrefetchHit] == 0 {
				t.Fatalf("run emitted no scheduler events to check: %v", counts)
			}
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"CoalescedReads", mx.CoalescedReads(), counts[events.CoalescedRead]},
				{"CoalescedPages", mx.CoalescedPages(), sums[events.CoalescedRead]},
				{"PrefetchHits", mx.PrefetchHits(), sums[events.PrefetchHit]},
				{"PrefetchWasted", mx.PrefetchWasted(), sums[events.PrefetchWasted]},
				{"Morphs", mx.Morphs(), sums[events.Morph]},
			} {
				if c.got != c.want {
					t.Errorf("collector %s = %d, events sum to %d", c.name, c.got, c.want)
				}
			}
		})
	}
}
