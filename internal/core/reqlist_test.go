package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/buffer"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/storage"
)

// sweepGraphs are the graphs of the differential sweep (internal/difftest):
// empty, star, clique, the 1024-vertex R-MAT, and disconnected components
// with trailing isolated vertices.
func sweepGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	empty, err := graph.FromEdges(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 31))
	if err != nil {
		t.Fatal(err)
	}
	powerlaw, _ := graph.DegreeOrder(raw)
	var edges []graph.Edge
	clique := func(lo, hi uint32) {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	clique(0, 10)
	for i := uint32(0); i < 10; i++ {
		edges = append(edges, graph.Edge{U: 20 + i, V: 20 + (i+1)%10})
	}
	clique(40, 45)
	clique(50, 53)
	disconnected, err := graph.FromEdges(64, edges)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"empty": empty, "star": graph.Star(300), "clique": graph.Complete(25),
		"powerlaw": powerlaw, "disconnected": disconnected,
	}
}

// sortedReference is the request list as it was built before the candidate
// set became the list: Algorithms 8 and 12 neighbor by neighbor — every id
// of n≻(u), or of n≺(u), that is not internal; everything for the MGT
// instance — deduplicated, then (page, vertex) pairs sorted and grouped by
// page.
func sortedReference(ctx *Ctx, model engine.Model, internal []storage.VertexRec) []extReq {
	st := ctx.store
	seen := bits.NewSet(st.NumVertices)
	var pairs []uint64
	emit := func(v uint32) {
		if !seen.Contains(int(v)) {
			seen.Add(int(v))
			pairs = append(pairs, uint64(st.FirstPageOf(v))<<32|uint64(v))
		}
	}
	for _, u := range internal {
		switch model {
		case engine.ModelEdge:
			for _, v := range u.Adj[intersect.UpperBound(u.Adj, u.ID):] {
				if !ctx.InInternal(v) {
					emit(v)
				}
			}
		case engine.ModelVertex:
			for _, v := range u.Adj[:intersect.LowerBound(u.Adj, u.ID)] {
				if !ctx.InInternal(v) {
					emit(v)
				}
			}
		case engine.ModelMGTInstance:
			for _, v := range u.Adj {
				emit(v)
			}
			emit(u.ID)
		}
	}
	slices.Sort(pairs)
	var reqs []extReq
	for i := 0; i < len(pairs); {
		first := uint32(pairs[i] >> 32)
		var cands []uint32
		for ; i < len(pairs) && uint32(pairs[i]>>32) == first; i++ {
			cands = append(cands, uint32(pairs[i]))
		}
		reqs = append(reqs, extReq{first: first, span: st.AlignedRange(first, 1), cands: cands})
	}
	return reqs
}

// TestRequestListMatchesSortedReference walks every iteration's internal
// range of every sweep graph under each model, loads it the way
// runner.iteration does, and checks that the unsorted walk of the candidate
// set yields exactly the (first, span, cands) list the sort produced.
func TestRequestListMatchesSortedReference(t *testing.T) {
	for name, g := range sweepGraphs(t) {
		for _, pageSize := range []int{128, 1024} {
			for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex, engine.ModelMGTInstance} {
				t.Run(fmt.Sprintf("%s/page%d/%s", name, pageSize, modelNames[model]), func(t *testing.T) {
					r, cleanup := newTestRunner(t, g, pageSize, serial, engine.Options{Model: model, MemoryPages: 4})
					defer cleanup()
					requests := 0
					for lo := uint32(0); lo < r.st.NumPages; {
						hi, ids := r.internalRange(lo)
						r.ctx.beginIteration(lo, hi, ids)
						r.vexSet.Clear()
						data, err := r.dev.ReadPages(lo, int(hi-lo))
						if err != nil {
							t.Fatal(err)
						}
						c, err := r.decodeChunk(lo, int(hi-lo), data)
						if err != nil {
							t.Fatal(err)
						}
						for _, rec := range c.Recs {
							r.ctx.addInternal(rec)
							r.model.ExternalCandidates(r.ctx, rec, r.vexSet)
						}
						got, want := r.buildRequests(), sortedReference(r.ctx, model, c.Recs)
						if !slices.EqualFunc(got, want, func(a, b extReq) bool {
							return a.first == b.first && a.span == b.span && slices.Equal(a.cands, b.cands)
						}) {
							t.Fatalf("internal pages [%d,%d): request list\n%v\nthe sorted reference has\n%v", lo, hi, got, want)
						}
						requests += len(got)
						buffer.PutChunk(c)
						lo = hi
					}
					if requests == 0 && g.NumEdges() > 0 && r.st.NumPages > uint32(r.mIn) {
						t.Fatal("no iteration had an external request: the fixture exercises nothing")
					}
				})
			}
		}
	}
}
