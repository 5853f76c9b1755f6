package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
)

// TestInternalAreaFitsItsBudget drives every iteration of a run by hand on
// the sparse and dense stores under all three models, and holds each
// internal range to the rule of DESIGN.md §5:
//   - the range contains the planner's (rangeEnd over the degree prefix) at the
//     same lo, and is exactly planAreas' first range in the first iteration;
//   - the bytes the area holds, its ids and one span entry per vertex, stay
//     within what the m_in pages at lo decode to — and areaWords, what the
//     range rule charges per vertex, is the size of a span entry;
//   - every list of the area is n≻ of its record as the store holds it,
//     read after the iteration is over and its chunks recycled (under
//     -tags optpoison a list still aliasing a recycled chunk reads
//     buffer.PoisonVertex);
//   - the device never has more than MemoryPages in reads at once, and
//     serves at least one.
func TestInternalAreaFitsItsBudget(t *testing.T) {
	var c Ctx
	if entry := unsafe.Sizeof(c.span[0]); areaWords*4 != entry {
		t.Fatalf("the range rule charges %d bytes per vertex, a span entry is %d", areaWords*4, entry)
	}
	_, sparse := sparseStore(t)
	stores := []struct {
		name string
		st   *storage.Store
	}{{"sparse", sparse}, {"dense", denseStore(t, 1)}}
	for _, s := range stores {
		for _, model := range []engine.Model{engine.ModelEdge, engine.ModelVertex, engine.ModelMGTInstance} {
			t.Run(fmt.Sprintf("%s/%s", s.name, modelNames[model]), func(t *testing.T) {
				checkAreaBudget(t, s.st, model)
			})
		}
	}
}

func checkAreaBudget(t *testing.T, st *storage.Store, model engine.Model) {
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	rec := &readRecorder{PageDevice: base, delay: 100 * time.Microsecond}
	m := int(st.NumPages) * 8 / 100
	r := newRunner(context.Background(), st, rec, serial, engine.Options{Model: model, MemoryPages: m})
	defer r.close()
	plan := planAreas(st, model, m)
	pp, _ := newPagePrefix(st)

	longer := 0
	it := 0
	for lo := uint32(0); lo < st.NumPages; it++ {
		hi, ids := r.internalRange(lo)
		planHi, _ := rangeEnd(st, lo, r.mIn, pp.degrees, pp.degrees)
		if hi < planHi || (it == 0 && hi != plan.first) {
			t.Fatalf("iteration %d: range [%d,%d), the planner's is [%d,%d), its first [0,%d)", it, lo, hi, lo, planHi, plan.first)
		}
		if hi > planHi {
			longer++
		}
		budget := 0
		for v := st.FirstRecordOf(lo); v < st.FirstRecordOf(internalRangeEnd(st, lo, r.mIn)); v++ {
			budget += st.DegreeOf(v) + recordWords
		}
		if _, err := r.iteration(it, lo, hi, ids); err != nil {
			t.Fatal(err)
		}
		c := r.ctx
		held := 4*len(c.ids) + int(unsafe.Sizeof(c.span[0]))*int(c.hiVertex-c.loVertex)
		if held > 4*budget || len(c.ids) > ids {
			t.Fatalf("iteration %d: the area holds %d ids (%d bytes with spans), planned ≤ %d ids, budget %d bytes",
				it, len(c.ids), held, ids, 4*budget)
		}
		data, err := base.ReadPages(lo, int(hi-lo))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if got, want := c.internalSucc(rec.ID), nsucc(rec.Adj, rec.ID); !slices.Equal(got, want) {
				t.Fatalf("iteration %d: the area has n≻(%d) = %v, the store %v", it, rec.ID, got, want)
			}
		}
		lo = hi
	}
	if model != engine.ModelVertex && longer == 0 {
		t.Errorf("%d iterations, none longer than the planner's: the fixture exercises nothing", it)
	}
	rec.requireReads(t)
	if rec.maxPages > m {
		t.Errorf("the device had %d pages in reads at once, MemoryPages is %d", rec.maxPages, m)
	}
}

// TestRangesAreDeterministic: the learned |n≻| that lengthen later internal
// ranges come from every decode of the run, on whichever thread and in
// whatever order, so the ranges must still be a function of the store and
// the options alone — the same in Serial and Parallel mode at every thread
// count, on either codec.
func TestRangesAreDeterministic(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 30_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	for _, codec := range storage.Codecs() {
		t.Run(codec, func(t *testing.T) {
			st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "g.optstore"), g, 512, codec)
			if err != nil {
				t.Fatal(err)
			}
			m := int(st.NumPages) * 8 / 100
			var first []int
			for _, run := range []struct {
				o       optRunner
				threads int
			}{{serial, 0}, {parallel, 1}, {parallel, 2}, {parallel, 4}} {
				res, _, err := runFile(st, run.o, engine.Options{Threads: run.threads, MemoryPages: m, CollectIterStats: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Triangles != want {
					t.Fatalf("%v/%d: triangles = %d, want %d", run.o.mode, run.threads, res.Triangles, want)
				}
				var ranges []int
				for _, s := range res.IterStats {
					ranges = append(ranges, s.InternalPages)
				}
				if first == nil {
					first = ranges
					if plan := planAreas(st, engine.ModelEdge, m); len(ranges) >= plan.iterations {
						t.Fatalf("%d iterations, planned %d: no range grew", len(ranges), plan.iterations)
					}
				} else if !slices.Equal(ranges, first) {
					t.Errorf("%v/%d: internal ranges %v, Serial took %v", run.o.mode, run.threads, ranges, first)
				}
			}
		})
	}
}
