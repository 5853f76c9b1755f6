package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/buffer"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// newTestRunner builds o's runner over the store of g and its own file
// device, with the budget resolved as engine.Run resolves it. The caller
// must invoke the returned cleanup.
func newTestRunner(t *testing.T, g *graph.Graph, pageSize int, o optRunner, opts engine.Options) (*runner, func()) {
	t.Helper()
	st := buildStore(t, g, pageSize)
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	opts.MemoryPages = opts.Budget(st)
	r := newRunner(context.Background(), st, dev, o, opts)
	return r, func() {
		r.close()
		_ = dev.Close()
	}
}

// allVertices returns every vertex id of the store's graph as a candidate
// set, the V_ex of a hypothetical iteration with an empty internal area.
func allVertices(n int) *bits.Set {
	vex := bits.NewSet(n)
	for v := 0; v < n; v++ {
		vex.Add(v)
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
	r, cleanup := newTestRunner(t, g, 128, optRunner{mode: Serial, seams: seams{maxCoalescePages: maxCoalesce}}, engine.Options{MemoryPages: 64})
	defer cleanup()

	r.vexSet = allVertices(r.st.NumVertices)
	reqs := r.buildRequests()
	if len(reqs) == 0 {
		t.Fatal("empty request list")
	}
	groups, residents := r.coalesce(reqs, r.external)
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
	r, cleanup := newTestRunner(t, g, 128, serial, engine.Options{MemoryPages: 64})
	defer cleanup()

	r.vexSet = allVertices(r.st.NumVertices)
	reqs := r.buildRequests()
	if len(reqs) < 3 {
		t.Fatalf("need at least 3 requests, got %d", len(reqs))
	}
	mid := reqs[len(reqs)/2]
	r.pool.Insert(&buffer.Chunk{FirstPage: mid.first, NumPages: mid.span})
	groups, residents := r.coalesce(reqs, r.external)
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

	run := func(o optRunner) (*engine.Result, *metrics.Collector) {
		res, mx, err := runFile(st, o, engine.Options{MemoryPages: budget})
		if err != nil {
			t.Fatal(err)
		}
		return res, mx
	}
	baseRes, baseMx := run(optRunner{mode: Serial, seams: seams{maxCoalescePages: 1, prefetchDepth: 1}})
	coalRes, coalMx := run(serial)

	if baseRes.Triangles != coalRes.Triangles {
		t.Fatalf("triangles diverge: baseline %d, coalesced %d", baseRes.Triangles, coalRes.Triangles)
	}
	if baseMx.CoalescedReads() != 0 {
		t.Fatalf("baseline coalesced %d reads with maxCoalescePages=1", baseMx.CoalescedReads())
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
// recorded) under the default prefetch depth and never happens when the
// window is one read deep.
func TestOPTPrefetchAccounting(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	budget := int(st.NumPages)/4 + 2

	_, mx, err := runFile(st, optRunner{mode: Serial, seams: seams{maxCoalescePages: 4}}, engine.Options{MemoryPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	if mx.PrefetchHits() == 0 {
		t.Fatal("default read-ahead recorded no prefetch hits")
	}
	if mx.PrefetchWasted() != 0 {
		t.Fatalf("error-free run wasted %d prefetches", mx.PrefetchWasted())
	}

	if _, mx, err = runFile(st, optRunner{mode: Serial, seams: seams{prefetchDepth: 1}}, engine.Options{MemoryPages: budget}); err != nil {
		t.Fatal(err)
	}
	if mx.PrefetchHits() != 0 || mx.PrefetchWasted() != 0 {
		t.Fatalf("prefetchDepth=1 still prefetched: hits=%d wasted=%d", mx.PrefetchHits(), mx.PrefetchWasted())
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

	for _, o := range []optRunner{serial, parallel} {
		for _, every := range []int64{1, 4, 9} {
			faulty := &ssd.FaultyDevice{PageDevice: base, FailEveryN: every}
			_, _, err := runWith(context.Background(), st, faulty, o, engine.Options{Threads: 2, MemoryPages: 16})
			if !errors.Is(err, ssd.ErrInjected) {
				t.Fatalf("%v FailEveryN=%d: err = %v, want ErrInjected", o.mode, every, err)
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
					o := optRunner{mode: mode, seams: seams{maxCoalescePages: coalesce, prefetchDepth: depth, disableMicroOverlap: sync}}
					res, _, err := runFile(st, o, engine.Options{Threads: 2, MemoryPages: 16})
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
// hot path at both levels: with a work state in hand the two edge-iterator
// kernels allocate nothing per record, and a whole warm external chunk task
// — work state borrowed, every candidate record intersected, tally flushed,
// work state returned — allocates nothing either.
func TestExternalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomises sync.Pool caching")
	}
	// Every record has hundreds of partners: the probe path, set included.
	r, cleanup := newTestRunner(t, graph.Complete(600), 512, serial, engine.Options{})
	defer cleanup()
	st := r.st
	data, err := r.dev.ReadPages(0, int(st.NumPages))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.decodeChunk(0, int(st.NumPages), data)
	if err != nil {
		t.Fatal(err)
	}
	defer buffer.PutChunk(c)
	// The lower half of the vertices is internal, the upper half external.
	mid := st.FirstPageOf(300)
	r.ctx.beginIteration(0, mid, 0)
	var cands []uint32
	for _, rec := range c.Recs {
		if r.ctx.InInternal(rec.ID) {
			r.ctx.addInternal(rec)
		} else {
			cands = append(cands, rec.ID)
		}
	}
	model := edgeIteratorModel{}
	in, ex := c.Recs[100], c.Recs[500]

	w := r.ctx.getWork()
	if allocs := testing.AllocsPerRun(10, func() { model.ExternalTriangle(r.ctx, w, ex) }); allocs != 0 {
		t.Errorf("ExternalTriangle: %v allocs/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { model.InternalTriangle(r.ctx, w, in) }); allocs != 0 {
		t.Errorf("InternalTriangle: %v allocs/op at steady state, want 0", allocs)
	}
	if w.calls == 0 || w.triangles == 0 {
		t.Fatalf("kernels tallied %d calls, %d triangles: the fixture exercises nothing", w.calls, w.triangles)
	}
	r.ctx.putWork(w)

	req := extReq{first: 0, span: int(st.NumPages), cands: cands}
	before := r.triangleCount()
	if allocs := testing.AllocsPerRun(10, func() { r.processExternal(c, req) }); allocs != 0 {
		t.Errorf("external chunk task: %v allocs/op at steady state, want 0", allocs)
	}
	if r.triangleCount() == before {
		t.Fatal("the external chunk task found no triangle: the fixture exercises nothing")
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
	r, cleanup := newTestRunner(t, g, 128, serial, engine.Options{MemoryPages: 64})
	defer cleanup()
	r.vexSet = allVertices(r.st.NumVertices)
	if allocs := testing.AllocsPerRun(10, func() {
		reqs := r.buildRequests()
		r.coalesce(reqs, r.external)
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
	r := newRunner(context.Background(), st, dev, serial, engine.Options{MemoryPages: 64})
	defer r.close()
	r.vexSet = allVertices(st.NumVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := r.buildRequests()
		r.coalesce(reqs, r.external)
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
		if _, _, err := runFile(st, serial, engine.Options{MemoryPages: int(st.NumPages)/4 + 2}); err != nil {
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
	budget := int(st.NumPages)/8 + 2

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
			o := optRunner{mode: mode, seams: seams{maxCoalescePages: 4}}
			res, mx, err := runFile(st, o, engine.Options{Threads: 2, MemoryPages: budget, Events: rec})
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

// readRecorder is a PageDevice that logs every read it serves, makes each
// take delay plus perPage per page, and records the most pages it ever had in reads at once. It
// hooks ReadPagesInto, the read the asynchronous layer issues; ReadPages,
// which only the disableMicroOverlap ablation reaches, passes through
// unlogged.
type readRecorder struct {
	ssd.PageDevice
	delay    time.Duration // per read
	perPage  time.Duration
	mu       sync.Mutex
	reads    []pageRead
	served   int // reads served, whether or not take has cleared them
	pages    int
	maxPages int
}

type pageRead struct {
	first uint32
	count int
}

func (d *readRecorder) ReadPagesInto(buf []byte, first uint32, count int) error {
	d.mu.Lock()
	d.reads = append(d.reads, pageRead{first, count})
	d.served++
	d.pages += count
	d.maxPages = max(d.maxPages, d.pages)
	d.mu.Unlock()
	time.Sleep(d.delay + time.Duration(count)*d.perPage)
	err := d.PageDevice.ReadPagesInto(buf, first, count)
	d.mu.Lock()
	d.pages -= count
	d.mu.Unlock()
	return err
}

// take returns the reads logged so far, in the order the device served
// them, and clears the log.
func (d *readRecorder) take() []pageRead {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.reads
	d.reads = nil
	return out
}

// requireReads fails the test unless the recorder served at least one read:
// a recorder that hooked a read the product never issues would pass every
// bound it checks on zero reads.
func (d *readRecorder) requireReads(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.served == 0 {
		t.Fatal("the device recorder served no read")
	}
}

// sparseStore builds a ≥ 200-page store shaped like the sparse benchmark
// workloads, scaled down: a degree-ordered R-MAT graph at 512-byte pages.
func sparseStore(t testing.TB) (*graph.Graph, *storage.Store) {
	t.Helper()
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 30_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 512)
	if st.NumPages < 200 {
		t.Fatalf("store has %d pages, the test needs ≥ 200", st.NumPages)
	}
	return g, st
}

// TestInternalLoadCoalescesByItsOwnArea pins the internal-area load's read
// size to the internal area: with m_in = 64 beside a 8-page external area,
// every iteration's load arrives as one read per ≤ 32 consecutive pages —
// not as the external window's 2-page reads. Under EdgeIterator≻ every
// external request lies above the internal range, so the reads inside
// [lo, hi) are exactly the load.
func TestInternalLoadCoalescesByItsOwnArea(t *testing.T) {
	_, st := sparseStore(t)
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	rec := &readRecorder{PageDevice: base}
	r := newRunner(context.Background(), st, rec, optRunner{mode: Serial, seams: seams{internalPages: 64, externalPages: 8}}, engine.Options{MemoryPages: 72})
	defer r.close()

	for it, lo := 0, uint32(0); lo < st.NumPages && it < 3; it++ {
		hi, ids := r.internalRange(lo)
		stat, err := r.iteration(it, lo, hi, ids)
		if err != nil {
			t.Fatal(err)
		}
		var load []pageRead
		for _, rd := range rec.take() {
			if rd.first < hi {
				load = append(load, rd)
			}
		}
		// Groups are issued in descending page order and served by several
		// device workers: only by page are two consecutive reads neighbours.
		slices.SortFunc(load, func(a, b pageRead) int { return cmp.Compare(a.first, b.first) })
		loaded := 0
		for i, rd := range load {
			loaded += rd.count
			if rd.count > defaultCoalescePages && rd.count > st.AlignedRange(rd.first, 1) {
				t.Errorf("iteration %d: load read [%d,+%d) exceeds the %d-page cap", it, rd.first, rd.count, defaultCoalescePages)
			}
			if i > 0 {
				prev := load[i-1]
				if prev.first+uint32(prev.count) == rd.first && prev.count+st.AlignedRange(rd.first, 1) <= defaultCoalescePages {
					t.Errorf("iteration %d: load reads [%d,+%d) and [%d,+%d) are consecutive and fit one read",
						it, prev.first, prev.count, rd.first, rd.count)
				}
			}
		}
		if want := int(hi-lo) - stat.ReusedPages; loaded != want {
			t.Errorf("iteration %d: load read %d pages, want %d", it, loaded, want)
		}
		if want := (int(hi-lo) + defaultCoalescePages - 1) / defaultCoalescePages; it == 0 && len(load) > want {
			t.Errorf("first load of %d pages took %d reads, want ≤ %d", hi-lo, len(load), want)
		}
		lo = hi
	}
	rec.requireReads(t)
}

// TestInternalLoadSteadyStateAllocs pins what a warm internal-area load
// allocates: the pass's scheduler and one completion closure per coalesced
// read, nothing per chunk — a consumer wrapped in a closure on the
// callback path would cost one allocation per chunk, and the range has
// several times more chunks than reads.
func TestInternalLoadSteadyStateAllocs(t *testing.T) {
	if raceEnabled || poisonEnabled {
		t.Skip("race instrumentation and the optpoison guard both make recycled chunks allocate")
	}
	_, st := sparseStore(t)
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	r := newRunner(context.Background(), st, dev, serial, engine.Options{MemoryPages: int(st.NumPages) * 8 / 100})
	defer r.close()
	hi, ids := r.internalRange(0)
	load := func() {
		r.ctx.beginIteration(0, hi, ids)
		r.vexSet.Clear()
		r.loadInternal(0, 0, hi)
	}
	load() // grows the scratch, the free lists and the device's arena
	before := r.mx.AsyncReads()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, load)
	reads := float64(r.mx.AsyncReads()-before) / (runs + 1) // AllocsPerRun calls once more to warm up
	chunks := len(r.taskBounds) - 1
	t.Logf("a warm load of %d chunks in %.0f reads allocates %.0f times", chunks, reads, allocs)
	if chunks < 2*int(reads)+8 {
		t.Fatalf("%d chunks in %.0f reads: the fixture exercises nothing", chunks, reads)
	}
	if allocs > reads+4 {
		t.Fatalf("%.0f allocations, want ≤ %.0f reads + 4", allocs, reads)
	}
}

// TestWindowKeepsReadsInFlight is the overlap lever's acceptance check: with
// a device slow enough that reads outlast the CPU work, at least 30 % of
// all device reads are issued while another read of the same pass is still
// on the device (a window that holds one group at a time scores ≈ 0.1
// here). The internal-area load goes through the same window, so its
// read-ahead counts too. Every read the scheduler submits must reach the
// device.
func TestWindowKeepsReadsInFlight(t *testing.T) {
	g, st := sparseStore(t)
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	rec := &readRecorder{PageDevice: base}
	res, mx, err := runWith(context.Background(), st, rec, optRunner{mode: Parallel, seams: seams{internalPages: 32, externalPages: 16}}, engine.Options{
		Threads: 2, MemoryPages: 48, Latency: ssd.Latency{PerRead: 300 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.CountTrianglesReference(g); res.Triangles != want {
		t.Fatalf("triangles = %d, want %d", res.Triangles, want)
	}
	rec.requireReads(t)
	if got := int64(len(rec.take())); got != mx.AsyncReads() {
		t.Fatalf("the device served %d reads, the scheduler submitted %d", got, mx.AsyncReads())
	}
	if share := float64(mx.PrefetchHits()) / float64(mx.AsyncReads()); share < 0.3 {
		t.Fatalf("%d of %d reads were issued with another in flight (%.2f), want ≥ 0.30",
			mx.PrefetchHits(), mx.AsyncReads(), share)
	}
}

// TestWindowHonoursPageBudget drives admitOne and release by hand for both
// passes. The load's window holds at most MemoryPages of admitted,
// undecoded pages, whatever the pool holds. The external pass's window
// shares 2·m_ex with the pool: admitted, undecoded pages plus every resident
// chunk stay within it, a decoded chunk entering the pool as its raw pages
// leave the window, and admission evicts the pool's unpinned chunks, never
// a pinned one, to make room. In both passes a group admitted into an empty
// window may exceed the budget, however large, while it has the window to
// itself.
func TestWindowHonoursPageBudget(t *testing.T) {
	r, cleanup := newTestRunner(t, graph.Complete(20), 64, optRunner{mode: Serial, seams: seams{internalPages: 8, externalPages: 8}}, engine.Options{MemoryPages: 16})
	defer cleanup()
	if r.mEx != 8 || r.opts.MemoryPages != 16 {
		t.Fatalf("m_ex = %d, MemoryPages = %d, want 8 and 16", r.mEx, r.opts.MemoryPages)
	}
	next := uint32(1000) // the first page of the next chunk the test makes
	newChunk := func(pages int) *buffer.Chunk {
		c := buffer.GetChunk()
		c.FirstPage, c.NumPages = next, pages
		next++
		return c
	}
	// groups is eight reads of an eighth of the budget b, one read larger
	// than b, and one more eighth.
	groups := func(b int) []int { return []int{b / 8, b / 8, b / 8, b / 8, b / 8, b / 8, b / 8, b / 8, b + 1, b / 8} }
	for _, tc := range []struct {
		name   string
		pass   pass
		budget int
		// pinned and unpinned are the one-page chunks the pool holds when
		// the pass starts; cold is the groups an empty window then admits.
		pinned, unpinned, cold int
	}{
		{"load", r.load, r.opts.MemoryPages, 2 * r.mEx, 0, 8},
		{"external", r.external, 2 * r.mEx, 0, 0, 8},
		{"external/trims-unpinned", r.external, 2 * r.mEx, 0, r.mEx, 8},
		{"external/pinned-waits", r.external, 2 * r.mEx, 2 * r.mEx, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.budget
			r.pool.Clear()
			var pinned []uint32
			for range tc.pinned {
				c := newChunk(1)
				r.pool.Insert(c)
				pinned = append(pinned, c.FirstPage)
			}
			for range tc.unpinned {
				c := newChunk(1)
				r.pool.Insert(c)
				r.pool.Unpin(c.FirstPage)
			}
			// held is what the pass's budget charges: the window, and in the
			// external pass the pool too.
			held := func(io *ioSched) int {
				if tc.pass.keep {
					return io.inPages + r.pool.UsedPages()
				}
				return io.inPages
			}
			io := r.newIOSched(0, tc.pass)
			for _, pages := range groups(b) {
				io.queue = append(io.queue, extGroup{pages: pages, left: 1})
			}
			var open []*extGroup // admitted, not yet decoded
			admitAll := func() {
				for {
					io.pumping = true
					g := io.admitOne()
					if g == nil {
						return
					}
					open = append(open, g)
					io.inflight-- // its read completes at once; it stays undecoded
					if held(io) > b && len(open) > 1 {
						t.Fatalf("%d pages held with %d groups open, budget %d", held(io), len(open), b)
					}
					if g.pages > b && len(open) != 1 {
						t.Fatalf("the %d-page group shares the window with %d others", g.pages, len(open)-1)
					}
				}
			}
			// decodeOldest decodes the oldest open group: its chunk enters
			// the pool pinned (external pass), and is unpinned once
			// intersected.
			decodeOldest := func() {
				g := open[0]
				open = open[1:]
				var c *buffer.Chunk
				if tc.pass.keep {
					c = newChunk(g.pages)
				}
				before := held(io)
				io.release(g, g.pages, c)
				if after := held(io); after > before {
					t.Fatalf("decoding a %d-page group raised the pages held from %d to %d", g.pages, before, after)
				}
				if c != nil {
					r.pool.Unpin(c.FirstPage)
				}
			}
			admitAll()
			if len(open) != tc.cold {
				t.Fatalf("a cold window admitted %d groups (%d pages, %d held), want %d", len(open), io.inPages, held(io), tc.cold)
			}
			for _, first := range pinned {
				if got := r.pool.PinCount(first); got != 1 {
					t.Fatalf("pinned chunk %d has pin count %d after admission, want 1 (-1: evicted)", first, got)
				}
				r.pool.Unpin(first)
			}
			for len(open) > 0 {
				decodeOldest()
				admitAll()
			}
			if io.idx != len(io.queue) {
				t.Fatalf("window stalled with %d of %d groups issued", io.idx, len(io.queue))
			}
		})
	}
}

// windowSample is what a sampler beside the external passes of a run saw:
// the peak of the window's pages plus the pool's, and, weighted by time,
// the average reads in flight, pages on the device and pages in the window.
type windowSample struct {
	peak                        int
	inflight, onDevice, inPages float64
	d                           time.Duration
}

// sampleWindow reads io's window and the pool together under io.mu, and
// rec's pages on the device, until the returned stop is called, which
// folds what it saw into into.
func sampleWindow(io *ioSched, rec *readRecorder, into *windowSample) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var inflight, onDevice, inPages float64
		start := time.Now()
		last := start
		for {
			select {
			case <-quit:
				into.inflight += inflight
				into.onDevice += onDevice
				into.inPages += inPages
				into.d += last.Sub(start)
				return
			default:
			}
			io.mu.Lock()
			held := io.inPages + io.r.pool.UsedPages()
			in, window := io.inflight, io.inPages
			io.mu.Unlock()
			rec.mu.Lock()
			dev := rec.pages
			rec.mu.Unlock()
			now := time.Now()
			dt := now.Sub(last).Seconds()
			last = now
			into.peak = max(into.peak, held)
			inflight += float64(in) * dt
			onDevice += float64(dev) * dt
			inPages += float64(window) * dt
			runtime.Gosched()
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// runSampled runs OPT over st iteration by iteration, as runner.iteration
// does, with sampleWindow beside every external pass, and returns the
// run's triangles, its m_ex and what the sampler saw (averages divided by
// the time sampled). Reads take rec's delay on the device.
func runSampled(t testing.TB, st *storage.Store, rec *readRecorder, mode Mode, opts engine.Options) (int64, int, windowSample) {
	t.Helper()
	r := newRunner(context.Background(), st, rec, optRunner{mode: mode}, opts)
	defer r.close()
	var ws windowSample
	for it, lo := 0, uint32(0); lo < st.NumPages; it++ {
		hi, ids := r.internalRange(lo)
		r.ctx.beginIteration(lo, hi, ids)
		r.vexSet.Clear()
		r.loadInternal(it, lo, hi)
		reqs := r.buildRequests()
		io := r.newIOSched(it, r.external)
		stat := engine.IterationStat{Index: it}
		stop := sampleWindow(io, rec, &ws)
		if mode == Serial {
			r.runSerial(io, reqs, &stat)
		} else {
			r.runParallel(io, reqs, &stat)
		}
		stop()
		if r.err != nil {
			t.Fatal(r.err)
		}
		lo = hi
	}
	if s := ws.d.Seconds(); s > 0 {
		ws.inflight /= s
		ws.onDevice /= s
		ws.inPages /= s
	}
	return r.triangleCount(), r.mEx, ws
}

// TestWindowAndPoolPeakWithinBudget is the shared budget's run-level
// check: over whole runs on the sparse test store — Serial and Parallel,
// raw and deltavarint pages, an 8 % buffer, 100 µs + 10 µs per page on the
// device — a sampler beside every external pass never sees the window's
// pages plus the pool's above 2·m_ex.
func TestWindowAndPoolPeakWithinBudget(t *testing.T) {
	g, raw := sparseStore(t)
	dv, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "dv.optstore"), g, 512, storage.CodecDeltaVarint)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.CountTrianglesReference(g)
	for _, st := range []*storage.Store{raw, dv} {
		base, err := st.Device()
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = base.Close() }()
		for _, mode := range []Mode{Serial, Parallel} {
			rec := &readRecorder{PageDevice: base, delay: 100 * time.Microsecond, perPage: 10 * time.Microsecond}
			opts := engine.Options{Threads: 2, MemoryPages: int(st.NumPages) * 8 / 100}
			tri, mEx, ws := runSampled(t, st, rec, mode, opts)
			t.Logf("%s %v: m_ex = %d, peak %d pages; over the external passes %.2f reads in flight, %.2f pages on the device, %.2f in the window",
				st.CodecName(), mode, mEx, ws.peak, ws.inflight, ws.onDevice, ws.inPages)
			if tri != want {
				t.Fatalf("%s %v: triangles = %d, want %d", st.CodecName(), mode, tri, want)
			}
			rec.requireReads(t)
			if ws.peak > 2*mEx {
				t.Errorf("%s %v: the window and the pool held %d pages at once, budget 2·m_ex = %d", st.CodecName(), mode, ws.peak, 2*mEx)
			}
		}
	}
}

// TestExternalPathSteadyStateAllocs is the chunk-recycling lever's
// acceptance check: once a first run has warmed the free lists, a whole run
// at an 8 % buffer allocates a small multiple of the store's size — the
// per-run fixtures — instead of a fresh Recs/Arena per external page decode
// (≈ 36 × the store when evicted chunks are dropped instead of recycled).
func TestExternalPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled || poisonEnabled {
		t.Skip("race instrumentation and the optpoison guard both make recycled chunks allocate")
	}
	_, st := sparseStore(t)
	opts := engine.Options{Threads: 2, MemoryPages: int(st.NumPages) * 8 / 100}
	if _, _, err := runFile(st, parallel, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := runFile(st, parallel, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	storeBytes := uint64(st.NumPages) * uint64(st.PageSize)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d iterations over a %d-byte store allocated %d bytes (%.1f×)",
		res.Iterations, storeBytes, allocated, float64(allocated)/float64(storeBytes))
	if allocated > 6*storeBytes {
		t.Fatalf("second run allocated %d bytes, more than 6 × the store's %d", allocated, storeBytes)
	}
}

// TestCloseRecyclesResidentChunks checks the last leg of the chunk-ownership
// rule: what is still resident in the external area when the run ends goes
// back to the free list, except a chunk somebody still pins.
func TestCloseRecyclesResidentChunks(t *testing.T) {
	r, cleanup := newTestRunner(t, graph.Complete(20), 64, serial, engine.Options{MemoryPages: 16})
	newChunk := func(first uint32) *buffer.Chunk {
		c := buffer.GetChunk()
		c.FirstPage, c.NumPages = first, 1
		c.Recs = append(c.Recs, storage.VertexRec{ID: first})
		r.pool.Insert(c)
		return c
	}
	idle, pinned := newChunk(0), newChunk(1)
	r.pool.Unpin(0)
	cleanup()
	if len(idle.Recs) != 0 {
		t.Error("unpinned resident chunk was not recycled at close")
	}
	if len(pinned.Recs) != 1 {
		t.Error("pinned chunk was recycled at close")
	}
}

// benchSparse is the two sparse benchmark workloads as a Go benchmark —
// 16 000-vertex lj-density R-MAT on 4096-byte pages of the given codec, OPT
// on 2 threads, 8 % buffer, 100 µs + 10 µs/page simulated latency — so
// B/op and allocs/op of the whole external path show in the bench smoke.
func benchSparse(b *testing.B, codec string) {
	d, err := gen.DatasetByName("lj")
	if err != nil {
		b.Fatal(err)
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(16000, int64(16000*d.Density), 1))
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	st, err := storage.BuildFileCodec(filepath.Join(b.TempDir(), "g.optstore"), g, 4096, codec)
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Options{
		Threads: 2, MemoryPages: int(float64(st.NumPages) * 0.08),
		Latency: ssd.Latency{PerRead: 100 * time.Microsecond, PerPage: 10 * time.Microsecond},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := runFile(st, parallel, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Iterations), "iterations")
		}
	}
}

// BenchmarkOPTParallelSparseIO is the sparse-io workload: raw pages.
func BenchmarkOPTParallelSparseIO(b *testing.B) { benchSparse(b, storage.CodecRaw) }

// BenchmarkOPTParallelSparseDV is the sparse-dv workload: the same graph and
// options over deltavarint pages, under half as many.
func BenchmarkOPTParallelSparseDV(b *testing.B) { benchSparse(b, storage.CodecDeltaVarint) }
