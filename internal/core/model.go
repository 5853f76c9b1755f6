// Package core implements the paper's primary contribution: the OPT
// framework for overlapped and parallel disk-based triangulation
// (Algorithms 3, 4, 5, 7 and 9), with the pluggable iterator models that
// make it generic — EdgeIterator≻ (Algorithms 6, 8, 10) and
// VertexIterator≻ (Algorithms 11, 12, 13) — plus the two-level overlapping
// strategy, thread morphing and multi-core parallelism of §3.2–§3.5.
package core

import (
	"slices"
	"sync"

	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/storage"
)

// Model is the plug-in interface of the OPT framework (§3.2). Implementations
// must be safe for concurrent calls: the framework invokes them from
// multiple worker goroutines.
type Model interface {
	// InternalTriangle identifies the internal triangles contributed by the
	// internal-area record u (InternalTriangleImpl in Algorithm 5). u.Adj is
	// n≻(u): the internal area keeps nothing else.
	InternalTriangle(ctx *Ctx, w *work, u storage.VertexRec)
	// ExternalCandidates adds to vex the external candidate vertices derived
	// from the freshly loaded internal record u, whole list included
	// (ExternalCandidateVertexImpl in Algorithm 7). u.Adj is strictly
	// ascending and below vex.Len(): Store.DecodeAppend checked it.
	ExternalCandidates(ctx *Ctx, u storage.VertexRec, vex *bits.Set)
	// ExternalTriangle identifies the external triangles contributed by the
	// external-area record v (ExternalTriangleImpl in Algorithm 9).
	ExternalTriangle(ctx *Ctx, w *work, v storage.VertexRec)
}

// NewModel returns the Model for m.
func NewModel(m engine.Model) Model {
	switch m {
	case engine.ModelVertex:
		return vertexIteratorModel{}
	case engine.ModelMGTInstance:
		return mgtModel{}
	default:
		return edgeIteratorModel{}
	}
}

// Ctx gives models access to the internal area and the output sink of the
// current iteration. Because storage order matches id order, the internal
// area is a contiguous vertex range [loVertex, hiVertex): residency is one
// comparison, adjacency lookup one slice index, and the internal neighbours
// of any sorted list one contiguous sub-slice. The area holds n≻(v) of each
// internal vertex and nothing else — the only part of an internal list any
// model reads once the load has identified the external candidates — copied
// into one id arena, so no decoded chunk outlives the load, and located by
// one [start, end) pair per vertex, areaWords ids (DESIGN.md §5).
// The area is immutable while triangulation runs, so reads need no locking.
type Ctx struct {
	store    *storage.Store
	loPage   uint32      // internal range start (inclusive)
	hiPage   uint32      // internal range end (exclusive)
	loVertex uint32      // first vertex whose record starts in the range
	hiVertex uint32      // one past the last such vertex
	span     [][2]uint32 // span[v-loVertex] = [start, end) of n≻(v) in ids
	ids      []uint32    // the lists n≻ back to back; reused across iterations
	out      Output      // nil: count only, nothing is emitted per pair

	// mx holds the run's totals: every work tally is flushed into it.
	mx    *metrics.Collector
	works sync.Pool // *work
}

func newCtx(store *storage.Store, out Output, mx *metrics.Collector) *Ctx {
	c := &Ctx{store: store, out: out, mx: mx}
	c.works.New = func() any { return &work{buf: make([]uint32, 0, 256)} }
	return c
}

// work is what one chunk task owns while it runs: the tally of what its
// intersections found and cost, the result scratch and the membership set.
// A task borrows it once with getWork, hands it to the model for every
// record of its chunk, and returns it with putWork, which adds the tally to
// the shared totals — so the shared counters are touched once per task, not
// four times per intersection, and a cancelled run's partial totals are
// exactly the tasks that finished.
type work struct {
	calls, ops, triangles int64
	buf                   []uint32 // intersection result; growth is retained
	probe                 intersect.Prober
}

// getWork borrows a work state with a zero tally.
func (c *Ctx) getWork() *work {
	return c.works.Get().(*work)
}

// putWork flushes w's tally into the run's totals and returns w.
func (c *Ctx) putWork(w *work) {
	c.mx.AddIntersections(w.calls, w.ops)
	c.mx.AddTriangles(w.triangles)
	w.calls, w.ops, w.triangles = 0, 0, 0
	c.works.Put(w)
}

// found tallies the triangles ⟨u, v, {ws…}⟩ and, when the run lists, emits
// them in the nested representation.
func (w *work) found(c *Ctx, u, v uint32, ws []uint32) {
	if len(ws) == 0 {
		return
	}
	w.triangles += int64(len(ws))
	if c.out != nil {
		c.out.Emit(u, v, ws)
	}
}

// beginIteration resets the internal area for a new page range whose lists
// n≻ hold at most ids ids in all, so the arena is sized once per iteration.
func (c *Ctx) beginIteration(lo, hi uint32, ids int) {
	c.loPage, c.hiPage = lo, hi
	c.loVertex = c.store.FirstRecordOf(lo)
	c.hiVertex = c.store.FirstRecordOf(hi)
	n := int(c.hiVertex - c.loVertex)
	if cap(c.span) < n {
		c.span = make([][2]uint32, n)
	} else {
		c.span = c.span[:n]
		clear(c.span)
	}
	c.ids = slices.Grow(c.ids[:0], ids)
}

// addInternal registers a decoded record in the internal area, split once:
// every model reads only n≻ of an internal vertex, so that suffix is copied
// into the id arena and the record's chunk can be recycled as soon as its
// external candidates are identified. It is called only from the load
// phase, one record at a time (the device's callback thread), in whatever
// order the chunks complete.
func (c *Ctx) addInternal(rec storage.VertexRec) {
	start := len(c.ids)
	c.ids = append(c.ids, nsucc(rec.Adj, rec.ID)...)
	c.span[rec.ID-c.loVertex] = [2]uint32{uint32(start), uint32(len(c.ids))}
}

// InInternal reports whether n(v) is resident in the internal area: one
// range comparison, thanks to the id-ordered storage layout.
func (c *Ctx) InInternal(v uint32) bool {
	return v >= c.loVertex && v < c.hiVertex
}

// internalSucc returns n≻(v) from the internal area; v must satisfy
// InInternal.
func (c *Ctx) internalSucc(v uint32) []uint32 {
	s := c.span[v-c.loVertex]
	return c.ids[s[0]:s[1]:s[1]]
}

// internalPreds returns the u ∈ n≺(v) with n(u) internal — one contiguous
// sub-slice of v's sorted list, found by its two bounds — and what follows
// it in the list.
func (c *Ctx) internalPreds(v storage.VertexRec) (preds, rest []uint32) {
	a := v.Adj[intersect.LowerBound(v.Adj, c.loVertex):]
	k := intersect.LowerBound(a, min(c.hiVertex, v.ID))
	return a[:k], a[k:]
}

// pair tallies one intersection of a record — the pair's triangles are
// stream ∩ fixed, both cut to the triangle's range — and lists them when the
// run has an output; a counting run materialises nothing.
func (w *work) pair(c *Ctx, u, v uint32, stream, fixed []uint32, set *bits.Set) {
	if c.out == nil {
		w.triangles += int64(intersect.AdaptiveBitmapCount(stream, fixed, set))
		return
	}
	w.buf = intersect.AdaptiveBitmap(w.buf[:0], stream, fixed, set)
	w.found(c, u, v, w.buf)
}

// nsucc returns n≻(v): the suffix of adj with ids greater than v.
func nsucc(adj []uint32, v uint32) []uint32 {
	return adj[intersect.UpperBound(adj, v):]
}

// edgeIteratorModel is the EdgeIterator≻ instance of OPT (§3.2).
type edgeIteratorModel struct{}

// InternalTriangle is Algorithm 6: for every edge (u, v) with both
// adjacency lists internal, output n≻(u) ∩ n≻(v). Nothing ≤ v is in n≻(v),
// so the pair intersects n≻(v) with what follows v in n≻(u).
func (edgeIteratorModel) InternalTriangle(ctx *Ctx, w *work, u storage.VertexRec) {
	nsU := ctx.internalSucc(u.ID)
	// n≻(u) starts above u, itself internal: one bound delimits the partners.
	partners := nsU[:intersect.LowerBound(nsU, ctx.hiVertex)]
	if len(partners) == 0 {
		return
	}
	// u is the fixed side of every intersection in the loop.
	set := w.probe.Fix(nsU, len(partners), ctx.store.NumVertices)
	w.calls += int64(len(partners))
	for i, v := range partners {
		nsV := ctx.internalSucc(v)
		w.ops += intersect.MinCost(nsU, nsV)
		w.pair(ctx, u.ID, v, nsV, nsU[i+1:], set)
	}
	intersect.Unfix(set, nsU)
}

// ExternalCandidates is Algorithm 8: v ∈ n≻(u) with n(v) outside the
// internal area must be fetched to the external area. u is internal, so
// those are the ids of its list from hiVertex up — one suffix.
func (edgeIteratorModel) ExternalCandidates(ctx *Ctx, u storage.VertexRec, vex *bits.Set) {
	vex.AddAll(u.Adj[intersect.LowerBound(u.Adj, ctx.hiVertex):])
}

// ExternalTriangle is Algorithms 9 (lines 4–7) and 10: for the external
// record v, the u ∈ n≺(v) with n(u) internal form V_req^v; intersect
// n≻(u) ∩ n≻(v) for each. Nothing ≤ v is in n≻(v), so n≻(u) is cut to the
// ids above v first.
func (edgeIteratorModel) ExternalTriangle(ctx *Ctx, w *work, v storage.VertexRec) {
	partners, rest := ctx.internalPreds(v)
	if len(partners) == 0 {
		return
	}
	nsV := nsucc(rest, v.ID)
	// v is the fixed side here: Algorithm 10 intersects n≻(v) against every
	// internal partner u ∈ V_req^v.
	set := w.probe.Fix(nsV, len(partners), ctx.store.NumVertices)
	w.calls += int64(len(partners))
	for _, u := range partners {
		nsU := ctx.internalSucc(u)
		w.ops += intersect.MinCost(nsU, nsV)
		w.pair(ctx, u, v.ID, nsucc(nsU, v.ID), nsV, set)
	}
	intersect.Unfix(set, nsV)
}

// vertexIteratorModel is the VertexIterator≻ instance of OPT (§3.5).
type vertexIteratorModel struct{}

// InternalTriangle is Algorithm 11: for the internal record u, check every
// ordered pair (v, w) ∈ n≻(u) × n≻(u) with n(v) internal against E_in.
func (vertexIteratorModel) InternalTriangle(ctx *Ctx, w *work, u storage.VertexRec) {
	vertexIteratorPairs(ctx, w, u)
}

// ExternalCandidates is Algorithm 12 (with the §3.5 filter): every
// u ∈ n≺(v) whose list is not internal is a candidate — its pairs can only
// be checked while v's list is resident. v is internal, so those are the ids
// of its list below loVertex — one prefix.
func (vertexIteratorModel) ExternalCandidates(ctx *Ctx, v storage.VertexRec, vex *bits.Set) {
	vex.AddAll(v.Adj[:intersect.LowerBound(v.Adj, ctx.loVertex)])
}

// ExternalTriangle is Algorithm 13 (corrected per the §3.5 prose): for the
// external record u, check pairs (v, w) ∈ n≻(u) × n≻(u), id(v) ≺ id(w),
// with n(v) internal, against E_in.
func (vertexIteratorModel) ExternalTriangle(ctx *Ctx, w *work, u storage.VertexRec) {
	vertexIteratorPairs(ctx, w, u)
}

// vertexIteratorPairs performs the shared pair-checking kernel of
// Algorithms 11 and 13. A triangle Δuvw is reported exactly once over the
// whole run: in the single iteration whose internal area holds n(v).
func vertexIteratorPairs(ctx *Ctx, w *work, u storage.VertexRec) {
	ns := nsucc(u.Adj, u.ID)
	if len(ns) < 2 {
		return
	}
	for i, v := range ns[:len(ns)-1] {
		if !ctx.InInternal(v) {
			continue
		}
		nsV := ctx.internalSucc(v) // every x below is > v
		rest := ns[i+1:]
		w.calls++
		w.ops += int64(len(rest))
		ws := w.buf[:0]
		for _, x := range rest {
			if intersect.Contains(nsV, x) {
				ws = append(ws, x)
			}
		}
		w.buf = ws
		w.found(ctx, u.ID, v, ws)
	}
}
