package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
)

// rmatStore builds the differential sweep's R-MAT shape (1024 vertices,
// 12 000 edges) at the given page size.
func rmatStore(t testing.TB, seed int64, pageSize int) (*graph.Graph, *storage.Store) {
	t.Helper()
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	return g, buildStore(t, g, pageSize)
}

// TestPlanPredictsRun pins what makes the planner a planner: from the
// directories alone it predicts the run's first internal range exactly and
// bounds its iteration count and its EdgeIterator≻ request list from
// above. Later ranges are longer than the planner's, since the run charges
// them the |n≻| it has learned where the planner charges the degree
// (DESIGN.md §5), so the bounds are not tight. The areas it returns spend
// the budget exactly.
func TestPlanPredictsRun(t *testing.T) {
	for _, seed := range []int64{31, 42} {
		for _, pageSize := range []int{128, 1024} {
			g, st := rmatStore(t, seed, pageSize)
			want := graph.CountTrianglesReference(g)
			for _, pct := range []int{8, 15} {
				t.Run(fmt.Sprintf("seed%d/page%d/%d%%", seed, pageSize, pct), func(t *testing.T) {
					m := int(st.NumPages) * pct / 100
					plan := planAreas(st, engine.ModelEdge, m)
					if plan.mIn+plan.mEx != m || plan.mIn < m/2 {
						t.Fatalf("plan %+v does not split m=%d with m_in ≥ m/2", plan, m)
					}
					res, _, err := runFile(st, parallel, engine.Options{Threads: 2, MemoryPages: m, CollectIterStats: true})
					if err != nil {
						t.Fatal(err)
					}
					if res.Triangles != want {
						t.Fatalf("triangles = %d, want %d", res.Triangles, want)
					}
					checkPlanBounds(t, st, plan, res)
				})
			}
		}
	}
}

// checkPlanBounds holds a run to its plan: the first internal range is the
// planner's, and neither the iterations nor the external requests exceed
// the planned ones.
func checkPlanBounds(t *testing.T, st *storage.Store, plan areaPlan, res *engine.Result) {
	t.Helper()
	if len(res.IterStats) == 0 {
		t.Fatal("run recorded no iteration")
	}
	if got, want := res.IterStats[0].InternalPages, int(plan.first); got != want {
		t.Errorf("first internal range = %d pages, planned %d", got, want)
	}
	var reqs int64
	for _, s := range res.IterStats {
		reqs += int64(s.ExternalReqs)
	}
	if res.Iterations > plan.iterations || reqs > plan.reqs {
		t.Errorf("run took %d iterations / %d requests, planned ≤ %d / ≤ %d",
			res.Iterations, reqs, plan.iterations, plan.reqs)
	}
}

// TestPlanBoundsOtherModels checks the mirrored prediction: for the
// n≺-driven models the planned request count is the every-chunk upper bound.
func TestPlanBoundsOtherModels(t *testing.T) {
	_, st := rmatStore(t, 31, 128)
	m := int(st.NumPages) * 15 / 100
	for _, model := range []engine.Model{engine.ModelVertex, engine.ModelMGTInstance} {
		t.Run(modelNames[model], func(t *testing.T) {
			plan := planAreas(st, model, m)
			res, _, err := runFile(st, serial, engine.Options{Model: model, MemoryPages: m, CollectIterStats: true})
			if err != nil {
				t.Fatal(err)
			}
			checkPlanBounds(t, st, plan, res)
			if res.IterStats[len(res.IterStats)-1].ExternalReqs == 0 {
				t.Error("the last iteration has no external request: the fixture exercises nothing")
			}
		})
	}
}

// TestPlanLegalAreas covers the corners: budgets of a few pages, and a
// store whose largest chunk leaves no room to grow the internal area, must
// still resolve to two areas of at least one page that sum to m.
func TestPlanLegalAreas(t *testing.T) {
	_, st := rmatStore(t, 31, 128)
	for m := 2; m <= 4; m++ {
		p := planAreas(st, engine.ModelEdge, m)
		if p.mIn < 1 || p.mEx < 1 || p.mIn+p.mEx != m {
			t.Errorf("m=%d: plan %+v", m, p)
		}
	}
	if p := planAreas(st, engine.ModelEdge, 1); p.mIn != 1 || p.mEx != 1 {
		t.Errorf("m=1: plan %+v, want the 1+1 minimum", p)
	}

	// K40 at 64-byte pages: every record spans 4 pages, so with m = 8 only
	// the even split leaves the external area twice the largest chunk.
	g := graph.Complete(40)
	hub := buildStore(t, g, 64)
	if span := hub.SpanOf(0); span <= 8/4 {
		t.Fatalf("test store's records span %d pages, want > m/4", span)
	}
	if p := planAreas(hub, engine.ModelEdge, 8); p.mIn != 4 || p.mEx != 4 {
		t.Errorf("hub store: plan %+v, want the even split", p)
	}
	res, _, err := runFile(hub, parallel, engine.Options{Threads: 2, MemoryPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.CountTrianglesReference(g); res.Triangles != want {
		t.Errorf("hub store: triangles = %d, want %d", res.Triangles, want)
	}
}

// TestExplicitAreasBypassPlanner keeps internalPages/externalPages the test
// seam: either one set means the planner is not consulted.
func TestExplicitAreasBypassPlanner(t *testing.T) {
	g := graph.Complete(40)
	for _, tc := range []struct {
		seams    seams
		mIn, mEx int
	}{
		{seams{internalPages: 7, externalPages: 33}, 7, 33},
		{seams{internalPages: 39}, 39, 1},
		{seams{externalPages: 30}, 10, 30},
	} {
		r, cleanup := newTestRunner(t, g, 64, optRunner{mode: Serial, seams: tc.seams}, engine.Options{MemoryPages: 40})
		if r.mIn != tc.mIn || r.mEx != tc.mEx {
			t.Errorf("%+v: areas %d/%d, want %d/%d", tc.seams, r.mIn, r.mEx, tc.mIn, tc.mEx)
		}
		cleanup()
	}
}

// TestPlanWalksAreBounded: planAreas walks the store once per legal split
// from m/2 up, but never more than planSteps + 1 times — from budgets of a
// few pages, through those with more than planSteps legal splits above
// m/2, to m ≫ P — and every plan still spends the budget.
func TestPlanWalksAreBounded(t *testing.T) {
	_, st := rmatStore(t, 31, 1024)
	_, maxSpan := newPagePrefix(st)
	budgets := []int{100 * int(st.NumPages), 1000 * int(st.NumPages)}
	for m := 1; m <= 200; m++ {
		budgets = append(budgets, m)
	}
	for _, m := range budgets {
		p := planAreas(st, engine.ModelEdge, m)
		legal := max(0, m-2*maxSpan-m/2) + 1
		if want := min(legal, planSteps+1); p.walks != want {
			t.Errorf("m=%d: %d walks, want %d (%d legal splits)", m, p.walks, want, legal)
		}
		if p.mIn+p.mEx != max(m, 2) || p.mIn < max(1, m/2) {
			t.Errorf("m=%d: plan %+v", m, p)
		}
	}
}

// TestPlannedRunAdmitsThePricedWindow: the window the planner prices a
// read's latency over is the one a planned run's external pass admits —
// W pages into an empty window and pool, and not one more.
func TestPlannedRunAdmitsThePricedWindow(t *testing.T) {
	_, st := sparseStore(t)
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	for _, pct := range []int{8, 15, 50} {
		m := int(st.NumPages) * pct / 100
		plan := planAreas(st, engine.ModelEdge, m)
		r := newRunner(context.Background(), st, base, parallel, engine.Options{Threads: 2, MemoryPages: m})
		if r.mIn != plan.mIn || r.mEx != plan.mEx {
			t.Errorf("m=%d: the run split %d/%d, planned %d/%d", m, r.mIn, r.mEx, plan.mIn, plan.mEx)
		}
		w := externalWindow(plan.mEx)
		io := r.newIOSched(0, r.external)
		io.mu.Lock()
		fits, over := io.fits(w), io.fits(w+1)
		io.mu.Unlock()
		if !fits || over {
			t.Errorf("m=%d: the external pass admits %d pages: %v, %d: %v; the plan priced a window of %d",
				m, w, fits, w+1, over, w)
		}
		r.close()
	}
}

// TestRangeEndSumsAgree: the range rule gives the same (hi, ids) at every
// lo whether its sums come from the planner's prefix sums or from the
// runner's per-vertex loops — both with every vertex charged its degree
// (the planner, and the runner's first iteration) and with the |n≻| a run
// learns — on raw and deltavarint stores of 128-, 1024- and 4096-byte
// pages, at m_in ∈ {1, m/2, m − 1}.
func TestRangeEndSumsAgree(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 30_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for _, codec := range storage.Codecs() {
		for _, pageSize := range []int{128, 1024, 4096} {
			t.Run(fmt.Sprintf("%s/%d", codec, pageSize), func(t *testing.T) {
				st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "g.optstore"), g, pageSize, codec)
				if err != nil {
					t.Fatal(err)
				}
				checkRangeEndSums(t, g, st)
			})
		}
	}
}

func checkRangeEndSums(t *testing.T, g *graph.Graph, st *storage.Store) {
	base, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = base.Close() }()
	pp, _ := newPagePrefix(st)
	// succBelow[v] is Σ |n≻(u)| over u < v, the sums of a run that has
	// decoded every vertex.
	succBelow := make([]int, st.NumVertices+1)
	for v := range st.NumVertices {
		succBelow[v+1] = succBelow[v] + len(nsucc(g.Neighbors(uint32(v)), uint32(v)))
	}
	succ := func(lo, hi uint32) int { return succBelow[st.FirstRecordOf(hi)] - succBelow[st.FirstRecordOf(lo)] }

	m := max(3, int(st.NumPages)*8/100)
	for _, mIn := range []int{1, m / 2, m - 1} {
		r := newRunner(context.Background(), st, base, serial, engine.Options{MemoryPages: m})
		r.mIn = mIn
		ranges := 0
		for lo := uint32(0); lo < st.NumPages; lo++ {
			if !st.StartsRecord(lo) {
				continue
			}
			hi, ids := rangeEnd(st, lo, mIn, pp.degrees, pp.degrees)
			if rhi, rids := r.internalRange(lo); rhi != hi || rids != ids {
				t.Fatalf("m_in=%d, lo=%d, degrees: loops give (%d, %d), prefix sums (%d, %d)", mIn, lo, rhi, rids, hi, ids)
			}
			ranges++
		}
		for v := range r.succLen {
			r.succLen[v] = uint32(len(nsucc(g.Neighbors(uint32(v)), uint32(v))))
		}
		for lo := uint32(0); lo < st.NumPages; lo++ {
			if !st.StartsRecord(lo) {
				continue
			}
			hi, ids := rangeEnd(st, lo, mIn, pp.degrees, succ)
			if rhi, rids := r.internalRange(lo); rhi != hi || rids != ids {
				t.Fatalf("m_in=%d, lo=%d, |n≻|: loops give (%d, %d), prefix sums (%d, %d)", mIn, lo, rhi, rids, hi, ids)
			}
		}
		r.close()
		if ranges < 2 {
			t.Fatalf("%d record starts: the fixture exercises nothing", ranges)
		}
	}
}

// planSink keeps BenchmarkPlanAreas' calls from being optimised away.
var planSink areaPlan

// BenchmarkPlanAreas is the planner on the dense-cpu benchmark shape
// (≈ 860 pages, a 15 % buffer): one call per run of every planned OPT job.
func BenchmarkPlanAreas(b *testing.B) {
	st := denseStore(b, 1)
	m := int(float64(st.NumPages) * 0.15)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		planSink = planAreas(st, engine.ModelEdge, m)
	}
}
