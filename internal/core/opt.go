package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/buffer"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Mode selects between the serial framework variant of §3.3 and the fully
// overlapped parallel variant of §3.2/§3.4.
type Mode int

const (
	// Serial is OPT_serial: the macro-level overlap is disabled — at each
	// iteration the external triangulation starts only after the internal
	// triangulation has completed — but the micro-level overlap (async
	// external I/O hidden behind external CPU work) remains.
	Serial Mode = iota
	// Parallel is full OPT: both overlap levels plus multi-core
	// parallelism and (optionally) thread morphing.
	Parallel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Serial {
		return "OPT_serial"
	}
	return "OPT"
}

// defaultCoalescePages is the most pages one vectored read covers.
const defaultCoalescePages = 32

// windowGroups is how many coalesced external reads always fit the external
// area's page budget together: a read is capped at m_ex/windowGroups pages,
// so while one group is decoded and intersected at least one more is on the
// device (DESIGN.md §9; CHANGES.md PR 21 has the 2- against 4-group numbers).
const windowGroups = 4

// seams is the test and ablation seam of a run: what only tests and the
// ablation benchmarks of this package vary. Every registered runner leaves it
// zero — the planner's split, the default coalescing and read-ahead,
// asynchronous external reads — so no run knob reaches it.
type seams struct {
	// internalPages (m_in) and externalPages (m_ex) override the split of
	// MemoryPages that planAreas otherwise chooses per store; one of them
	// set gives the other the rest of the budget.
	internalPages, externalPages int
	// maxCoalescePages caps the pages merged into one vectored read by the
	// I/O scheduler (DESIGN.md §9). 0 selects defaultCoalescePages; either
	// way an external read is clamped to m_ex/windowGroups and an
	// internal-area read to the internal area. 1 effectively disables
	// coalescing (requests are never merged, though a multi-page chunk still
	// reads as one).
	maxCoalescePages int
	// prefetchDepth bounds the coalesced reads the scheduler keeps in flight
	// (read-ahead). 0 selects the device's queue depth; 1 disables
	// read-ahead, restoring the one-read-at-a-time chain of Algorithm 9.
	prefetchDepth int
	// disableMicroOverlap replaces the scheduler's asynchronous reads, the
	// load's and the external list's, with synchronous ones, an ablation
	// that degrades OPT towards MGT's I/O behaviour.
	disableMicroOverlap bool
}

// optRunner is one OPT variant as the engine runs it: one value per Mode is
// registered at init, so both variants flow through the same dispatch path
// as every baseline, and its Run is the entry of Algorithm 3.
type optRunner struct {
	mode  Mode
	seams seams
}

func init() {
	engine.Register(engine.Info{
		Name:           Parallel.String(),
		ListsTriangles: true,
		Models:         true,
		Parallel:       true,
	}, optRunner{mode: Parallel})
	engine.Register(engine.Info{
		Name:           Serial.String(),
		ListsTriangles: true,
		Models:         true,
	}, optRunner{mode: Serial})
}

// Run implements engine.Runner: Algorithm 3 over a store whose data pages
// are served by base. When ctx is done the run stops within the current
// iteration — queued device requests complete with the context's error, no
// goroutines leak — and the partial Result accumulated so far is returned
// alongside an error satisfying errors.Is(err, ctx.Err()).
func (o optRunner) Run(ctx context.Context, st *storage.Store, base ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	r := newRunner(ctx, st, base, o, opts)
	defer r.close()
	return r.run()
}

// extReq is one element of the request list L of Algorithm 4: a chunk to
// load into the external area together with V_ex^i, the candidate vertices
// whose records it holds. The internal-area load is a list of them too, one
// per chunk of its range, with no candidates.
type extReq struct {
	first uint32
	span  int
	cands []uint32 // sorted
}

type runner struct {
	gctx  context.Context
	st    *storage.Store
	dev   *ssd.AsyncDevice
	mode  Mode
	seams seams
	opts  engine.Options
	model Model
	ctx   *Ctx
	mx    *metrics.Collector
	mIn   int
	mEx   int
	pool  *buffer.Pool // external area, persists across iterations

	// The two reads of an iteration through the I/O scheduler, and its
	// read-ahead, resolved from the seams (DESIGN.md §9).
	load, external pass
	prefetchDepth  int

	// succLen[v] is |n≻(v)| once any chunk holding v has been decoded, and
	// |n(v)| before: what v costs the internal area, as far as the run
	// knows (internalRange).
	succLen []uint32

	// Per-iteration state. vexSet is V_ex: the models add candidates straight
	// into it, and since records are stored in id order its members read
	// ascending are already the request list's page order. taskBounds holds
	// the first vertex of every chunk of the internal range, then hiVertex:
	// one internal task per chunk.
	vexSet     *bits.Set
	taskBounds []uint32

	// Backing arrays of the request lists and the coalescer, reused across
	// iterations (sub-slices alias the shared arrays, so each is rebuilt
	// from scratch by every pass and never grows mid-pass). They are
	// one half of what keeps the external path from allocating; the other is
	// decoded chunks, which recycle through buffer.PutChunk under the
	// ownership rule of DESIGN.md §9 — the pool for what it evicts, the
	// runner for an internal-area chunk once it is loaded.
	reqScratch      []extReq
	candScratch     []uint32
	spanScratch     []int
	loadScratch     []extReq
	groupScratch    []extGroup
	residentScratch []residentReq

	errOnce sync.Once
	err     error
}

func newRunner(ctx context.Context, st *storage.Store, base ssd.PageDevice, o optRunner, opts engine.Options) *runner {
	if opts.Threads <= 0 {
		opts.Threads = 2 // the main thread and the callback thread
	}
	mIn, mEx := o.seams.internalPages, o.seams.externalPages
	if mIn <= 0 && mEx <= 0 {
		plan := planAreas(st, opts.Model, opts.MemoryPages)
		mIn, mEx = plan.mIn, plan.mEx
	} else if mIn <= 0 {
		mIn = opts.MemoryPages - mEx
	} else if mEx <= 0 {
		mEx = opts.MemoryPages - mIn
	}
	mIn, mEx = max(mIn, 1), max(mEx, 1)
	// An external read is also capped so that windowGroups of them fit m_ex.
	// The external pass's reads and the pool's chunks share one window of
	// externalWindow(m_ex) = 2·m_ex pages — the window the planner priced —
	// each page counted once: raw until it is decoded, then as a resident
	// chunk. The internal-area load has nothing to overlap with:
	// a read is capped only by its own area, and its window is the whole
	// budget, since a range may span more pages than m_in and while it loads
	// the external area is idle.
	maxCoalesce := cmp.Or(o.seams.maxCoalescePages, defaultCoalescePages)
	succLen := make([]uint32, st.NumVertices)
	for v := range succLen {
		succLen[v] = uint32(st.DegreeOf(uint32(v)))
	}
	mx := metrics.NewCollector()
	r := &runner{
		gctx:     ctx,
		st:       st,
		mode:     o.mode,
		seams:    o.seams,
		opts:     opts,
		model:    NewModel(opts.Model),
		mx:       mx,
		mIn:      mIn,
		mEx:      mEx,
		pool:     buffer.NewPool(mEx),
		vexSet:   bits.NewSet(st.NumVertices),
		succLen:  succLen,
		load:     pass{area: "internal", window: opts.MemoryPages, maxRead: min(maxCoalesce, mIn)},
		external: pass{area: "external", window: externalWindow(mEx), maxRead: min(maxCoalesce, max(1, mEx/windowGroups)), keep: true},
	}
	r.dev = ssd.NewAsyncDevice(base, ssd.AsyncOptions{
		QueueDepth: opts.QueueDepth,
		Latency:    opts.Latency,
		Metrics:    mx,
		Context:    ctx,
		Events:     opts.Events,
	})
	r.prefetchDepth = cmp.Or(o.seams.prefetchDepth, r.dev.QueueDepth())
	var out Output
	if opts.OnTriangles != nil {
		out = FuncOutput(opts.OnTriangles)
	}
	r.ctx = newCtx(st, out, mx)
	return r
}

// close stops the device and — with every callback returned, so nothing
// reads the external area any more — hands the chunks still resident there
// back to the free list for the next run.
func (r *runner) close() {
	r.dev.Close()
	r.pool.Clear()
}

func (r *runner) fail(err error) {
	if err == nil {
		return
	}
	r.errOnce.Do(func() { r.err = err })
}

// decodeChunk decodes one completed read segment into a freshly pooled
// chunk: records append into the chunk's recycled Recs/Arena backing, the
// decode results are repointed into the chunk, and the page header is
// stamped. On decode failure the chunk goes straight back to the pool and
// the caller receives only the error — ownership of the chunk transfers to
// the caller on success and never otherwise. Both the internal-area
// callback and the external I/O scheduler funnel through here, so the
// decode/repoint/recycle discipline the optpoison build checks at run time
// has exactly one implementation. Store.DecodeAppend holds the records to
// the directories, which everything downstream indexes by — record ids into
// the internal area, neighbor ids into the candidate and probe sets — and
// every bound and kernel relies on sorted lists; what only the caller can
// check is that the device returned the pages asked for. Every decode also
// tells the run |n≻(v)| of its records (succLen).
func (r *runner) decodeChunk(first uint32, span int, data []byte) (*buffer.Chunk, error) {
	c := buffer.GetChunk()
	recs, arena, err := r.st.DecodeAppend(c.Recs, c.Arena, data)
	c.Recs, c.Arena = recs, arena
	if err == nil && recs[0].ID != r.st.FirstRecordOf(first) {
		err = fmt.Errorf("%w: pages [%d,+%d) start with record %d, page %d with %d",
			storage.ErrCorruptPage, first, span, recs[0].ID, first, r.st.FirstRecordOf(first))
	}
	if err != nil {
		buffer.PutChunk(c)
		return nil, err
	}
	for _, rec := range recs {
		r.succLen[rec.ID] = uint32(len(nsucc(rec.Adj, rec.ID)))
	}
	c.FirstPage = first
	c.NumPages = span
	return c, nil
}

// emit forwards one progress event to the configured sink, if any.
func (r *runner) emit(e events.Event) {
	if s := r.opts.Events; s != nil {
		e.Algorithm = r.mode.String()
		s.Event(e)
	}
}

// note records one scheduler event (coalesced read, prefetch outcome, morph)
// with both observers, the progress sink and the metrics collector, so a
// counter cannot disagree with the sum of its events. These fire per read
// or per iteration, never per intersection.
func (r *runner) note(e events.Event) {
	r.emit(e)
	r.mx.Event(e)
}

// triangleCount returns the triangles of every task finished so far.
func (r *runner) triangleCount() int64 { return r.mx.Triangles() }

// run is Algorithm 3's outer loop.
func (r *runner) run() (*engine.Result, error) {
	var (
		lo         uint32
		iterations int
		iterStats  []engine.IterationStat
	)
	for lo < r.st.NumPages {
		if err := r.gctx.Err(); err != nil {
			r.fail(err)
			break
		}
		hi, ids := r.internalRange(lo)
		count := int(hi - lo)

		itStart := time.Now()
		triBefore := r.triangleCount()
		r.emit(events.Event{Kind: events.IterationStart, Iteration: iterations, N: int64(count)})
		stat, err := r.iteration(iterations, lo, hi, ids)
		stat.Elapsed = time.Since(itStart)
		if found := r.triangleCount() - triBefore; found > 0 {
			r.emit(events.Event{Kind: events.TrianglesFound, Iteration: iterations, N: found})
		}
		r.emit(events.Event{Kind: events.IterationEnd, Iteration: iterations, N: r.triangleCount() - triBefore, Elapsed: stat.Elapsed})
		if err != nil {
			r.fail(err)
			break
		}
		if r.opts.CollectIterStats {
			iterStats = append(iterStats, stat)
		}
		iterations++
		lo = hi
	}
	res := engine.NewResult(r.mx)
	res.Iterations, res.IterStats = iterations, iterStats
	return res, r.err
}

// internalRangeEnd returns the end of the m_in pages at lo whose decoded
// records are the internal area's budget (rangeEnd): mIn pages or what is
// left of the store, extended to a record boundary.
func internalRangeEnd(st *storage.Store, lo uint32, mIn int) uint32 {
	return lo + uint32(st.AlignedRange(lo, min(mIn, int(st.NumPages-lo))))
}

// recordWords is what a decoded vertex costs beside its ids, in ids: a
// storage.VertexRec — id, padding and the Adj slice header — is 32 bytes.
// It prices the budget: what m_in pages of chunks held decoded.
const recordWords = 8

// areaWords is what the internal area holds per vertex beside its ids, in
// ids: the [start, end) of n≻(v) in Ctx.ids.
const areaWords = 2

// rangeSum returns Σ of some per-vertex quantity over the records starting
// in the aligned page range [lo, hi).
type rangeSum func(lo, hi uint32) int

// rangeEnd returns the end of the internal range of the iteration that
// starts at page lo, and Σ size(v) over its vertices (DESIGN.md §5).
// The budget is what m_in pages at lo decode to: Σ (|n(v)| + recordWords)
// over the records of internalRangeEnd, degrees giving the first term. The
// range then grows chunk by chunk while Σ (size(v) + areaWords) fits the
// budget, sizes giving the first term per chunk. Both callers pass sizes no
// larger than the degrees — the runner the |n≻(v)| it has learned
// (internalRange), the planner the degrees themselves — so a range never
// ends before internalRangeEnd, and the runner's never before the
// planner's at the same lo. The rule costs one sum for the budget and one
// per chunk of the range: O(range) pages on the planner's prefix sums,
// whatever the degrees.
func rangeEnd(st *storage.Store, lo uint32, mIn int, degrees, sizes rangeSum) (hi uint32, ids int) {
	end := internalRangeEnd(st, lo, mIn)
	budget := degrees(lo, end) + recordWords*int(st.FirstRecordOf(end)-st.FirstRecordOf(lo))
	held := 0
	for hi = lo; hi < st.NumPages; {
		next := hi + uint32(st.AlignedRange(hi, 1))
		chunk := sizes(hi, next)
		cost := chunk + areaWords*int(st.FirstRecordOf(next)-st.FirstRecordOf(hi))
		if held+cost > budget {
			break
		}
		held += cost
		ids += chunk
		hi = next
	}
	return hi, ids
}

// internalRange returns the end of the internal range of the iteration that
// starts at page lo, and the ids its lists n≻ hold at most: rangeEnd over
// the learned succLen. Nothing is decoded before the first iteration, so
// its range is exactly the planner's first.
func (r *runner) internalRange(lo uint32) (hi uint32, ids int) {
	return rangeEnd(r.st, lo, r.mIn, r.degreeSum, r.succSum)
}

// degreeSum is the runner's rangeSum of |n(v)|, read off the degree
// directory vertex by vertex.
func (r *runner) degreeSum(lo, hi uint32) int {
	sum := 0
	for v, end := r.st.FirstRecordOf(lo), r.st.FirstRecordOf(hi); v < end; v++ {
		sum += r.st.DegreeOf(v)
	}
	return sum
}

// succSum is the runner's rangeSum of succLen, what its vertices cost the
// internal area as far as the run knows.
func (r *runner) succSum(lo, hi uint32) int {
	sum := 0
	for v, end := r.st.FirstRecordOf(lo), r.st.FirstRecordOf(hi); v < end; v++ {
		sum += int(r.succLen[v])
	}
	return sum
}

// iteration performs lines 5–13 of Algorithm 3 for the page range [lo, hi),
// whose lists n≻ hold at most ids ids.
func (r *runner) iteration(index int, lo, hi uint32, ids int) (engine.IterationStat, error) {
	stat := engine.IterationStat{Index: index, InternalPages: int(hi - lo)}
	loadStart := time.Now()
	r.ctx.beginIteration(lo, hi, ids)

	// V_ex ← ∅ (line 2; per-iteration in practice, reset after delegation).
	r.vexSet.Clear()

	stat.ReusedPages = r.loadInternal(index, lo, hi)
	stat.LoadTime = time.Since(loadStart)
	if r.err != nil {
		return stat, r.err
	}

	// --- Build the request list L (Algorithm 4 lines 2–7). ---
	reqs := r.buildRequests()
	stat.ExternalReqs = len(reqs)

	// Lines 9–13. The internal area holds no chunk: nothing to unpin after.
	// The external pool retains its pages for the next iteration's Δin
	// credit.
	io := r.newIOSched(index, r.external)
	if r.mode == Serial {
		r.runSerial(io, reqs, &stat)
	} else {
		r.runParallel(io, reqs, &stat)
	}
	return stat, r.err
}

// loadInternal loads the internal area of [lo, hi) (Algorithm 3 lines 6–8)
// as the scheduler's load pass over one request per chunk (DESIGN.md §9),
// and returns the pages taken from the external area without I/O — the Δin
// credit of the Algorithm 4 loading order. The rest arrive in coalesced
// reads. With no task scheduler every chunk is loaded on the callback
// thread, IdentifyExternalCandidateVertex (Algorithm 7) included.
func (r *runner) loadInternal(index int, lo, hi uint32) (reused int) {
	bounds := r.taskBounds[:0]
	load := r.loadScratch[:0]
	for p := lo; p < hi; {
		bounds = append(bounds, r.st.FirstRecordOf(p))
		span := r.st.AlignedRange(p, 1)
		load = append(load, extReq{first: p, span: span})
		p += uint32(span)
	}
	r.loadScratch = load
	r.taskBounds = append(bounds, r.ctx.hiVertex)
	io := r.newIOSched(index, r.load)
	io.start(load)
	io.wait() // line 8: wait for IdentifyExternalCandidateVertex
	return io.reused
}

// loadChunk enters a decoded chunk into the internal area — n≻ of every
// record copied, the external candidates identified from the whole list —
// and recycles it: nothing reads the chunk after this.
func (r *runner) loadChunk(c *buffer.Chunk) {
	for _, rec := range c.Recs {
		r.ctx.addInternal(rec)
		r.model.ExternalCandidates(r.ctx, rec, r.vexSet)
	}
	buffer.PutChunk(c)
}

// buildRequests groups V_ex by chunk into the ascending-page request list
// L. Nothing is sorted: records are stored in id order, so V_ex read
// ascending is in page order already (storage.Open checked that the vertex
// directory never decreases) and the candidates of one chunk are one run of
// it. The I/O scheduler's coalescer consumes L ascending (consecutive pages
// merge into vectored reads) and then issues the groups in descending page
// order, preserving Algorithm 4 line 3 — the pages of the next iteration's
// internal area load last, so they stay resident in the external pool when
// the iteration ends. All returned slices alias runner scratch recycled
// across iterations.
func (r *runner) buildRequests() []extReq {
	vex := r.vexSet.AppendTo(r.candScratch[:0])
	r.candScratch = vex
	reqs := r.reqScratch[:0]
	for i := 0; i < len(vex); {
		first := r.st.FirstPageOf(vex[i])
		j := i + 1
		for j < len(vex) && r.st.FirstPageOf(vex[j]) == first {
			j++
		}
		reqs = append(reqs, extReq{
			first: first,
			span:  r.st.AlignedRange(first, 1),
			cands: vex[i:j:j],
		})
		i = j
	}
	r.reqScratch = reqs
	return reqs
}

// runSerial executes the iteration tail in OPT_serial order: internal
// triangulation first (single-threaded), then the external triangulation
// with micro-level overlap only — coalesced reads kept in flight by the
// I/O scheduler io while the callback thread intersects.
func (r *runner) runSerial(io *ioSched, reqs []extReq, stat *engine.IterationStat) {
	t0 := time.Now()
	for i := 1; i < len(r.taskBounds); i++ {
		if err := r.gctx.Err(); err != nil {
			r.fail(err)
			break
		}
		r.triangulateInternal(r.taskBounds[i-1], r.taskBounds[i])
	}
	stat.InternalTime = time.Since(t0)
	r.mx.AddSerialWork(stat.InternalTime)

	t1 := time.Now()
	io.start(reqs)
	io.wait()
	stat.ExternalTime = time.Since(t1)
	r.mx.AddSerialWork(stat.ExternalTime)
}

// runParallel executes the iteration tail with the macro-level overlap:
// internal and external triangulation proceed concurrently on a morphing
// worker pool (Algorithm 3 lines 9–11, §3.4); io runs its external work
// as external-class tasks.
func (r *runner) runParallel(io *ioSched, reqs []extReq, stat *engine.IterationStat) {
	var onTask func(taskClass, time.Duration)
	if r.opts.CollectIterStats && r.opts.Events != nil {
		onTask = func(class taskClass, d time.Duration) {
			r.emit(events.Event{Kind: events.TaskDone, Iteration: stat.Index, N: int64(class), Elapsed: d})
		}
	}
	// A single worker has to run both classes whatever the policy says.
	s := newSched(!r.opts.DisableMorphing || r.opts.Threads == 1, onTask)
	s.run(r.opts.Threads, func() {
		// DelegateExternalTriangle (line 9) precedes InternalTriangle
		// (line 10): start the I/O scheduler — resident chunks plus the
		// initial read window — then submit the internal tasks, one per chunk of
		// the range. The scheduler closes classExternal when the last
		// request retires (immediately, when the list is empty).
		io.s = s
		io.start(reqs)
		for i := 1; i < len(r.taskBounds); i++ {
			from, to := r.taskBounds[i-1], r.taskBounds[i]
			s.submit(classInternal, func() {
				if err := r.gctx.Err(); err != nil {
					r.fail(err)
					return
				}
				r.triangulateInternal(from, to)
			})
		}
		s.close(classInternal)
	})
	stat.InternalTime = s.classWork(classInternal)
	stat.ExternalTime = s.classWork(classExternal)
	if m := s.morphCount(); m > 0 {
		r.note(events.Event{Kind: events.Morph, Iteration: stat.Index, N: m})
	}
	r.mx.AddParallelWork(stat.InternalTime + stat.ExternalTime)
}

// triangulateInternal is one internal task: InternalTriangle (Algorithm 5)
// for every internal vertex v of [from, to), handed over with n≻(v) as its
// list.
func (r *runner) triangulateInternal(from, to uint32) {
	w := r.ctx.getWork()
	for v := from; v < to; v++ {
		r.model.InternalTriangle(r.ctx, w, storage.VertexRec{ID: v, Adj: r.ctx.internalSucc(v)})
	}
	r.ctx.putWork(w)
}

// processExternal is one external chunk task: ExternalTriangle (Algorithm 9
// lines 4–7) for every candidate record in the chunk, under one work state.
func (r *runner) processExternal(c *buffer.Chunk, req extReq) {
	w := r.ctx.getWork()
	for _, rec := range c.Recs {
		if _, ok := slices.BinarySearch(req.cands, rec.ID); !ok {
			continue
		}
		r.model.ExternalTriangle(r.ctx, w, rec)
	}
	r.ctx.putWork(w)
}
