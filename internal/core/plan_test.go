package core

import (
	"fmt"
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

// TestPlanLegalAreas covers the corners: budgets too small to split eight
// ways, and a store whose largest chunk leaves no room to grow the internal
// area, must still resolve to two areas of at least one page that sum to m.
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
