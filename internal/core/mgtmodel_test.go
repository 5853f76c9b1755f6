package core

import (
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// TestMGTInstanceMatchesReference validates the §3.5 genericity claim:
// plugging the degenerate MGT model into the framework yields exact
// counts across buffer budgets and both I/O modes.
func TestMGTInstanceMatchesReference(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 47))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	st := buildStore(t, g, 256)
	for _, budget := range []int{2, 6, int(st.NumPages)/4 + 2} {
		for _, sync := range []bool{false, true} {
			o := optRunner{mode: Serial, seams: seams{disableMicroOverlap: sync}}
			res, _, err := runFile(st, o, engine.Options{Model: engine.ModelMGTInstance, MemoryPages: budget})
			if err != nil {
				t.Fatalf("budget=%d sync=%v: %v", budget, sync, err)
			}
			if res.Triangles != want {
				t.Fatalf("budget=%d sync=%v: triangles = %d, want %d", budget, sync, res.Triangles, want)
			}
		}
	}
}

// TestMGTInstanceParallel runs the instance through the parallel framework.
func TestMGTInstanceParallel(t *testing.T) {
	g := graph.PaperExample()
	st := buildStore(t, g, 64)
	res, _, err := runFile(st, parallel, engine.Options{Model: engine.ModelMGTInstance, Threads: 2, MemoryPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 5 {
		t.Fatalf("triangles = %d, want 5", res.Triangles)
	}
}

// TestMGTInstanceDoesNoInternalWork: the degenerate model must record
// zero intersections during the internal phase — everything flows through
// the external area, as in the original MGT.
func TestMGTInstanceDoesNoInternalWork(t *testing.T) {
	g := graph.Complete(12)
	st := buildStore(t, g, 64)
	res, _, err := runFile(st, serial, engine.Options{Model: engine.ModelMGTInstance, MemoryPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 220 {
		t.Fatalf("triangles = %d, want 220", res.Triangles)
	}
	// All pair work happens in ExternalTriangle; with a K12 and a tiny
	// buffer, external requests must dominate page reads.
	if res.PagesRead == 0 {
		t.Fatal("MGT instance read no pages")
	}
}

// TestMGTInstanceIOCheaperThanFullRescan: the neighbor-pruned instance
// must not read more pages per block than the original's full rescan
// bound (1 + blocks)·P(G).
func TestMGTInstanceIOCheaperThanFullRescan(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 5000, 3))
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 128)
	res, _, err := runFile(st, serial, engine.Options{Model: engine.ModelMGTInstance, MemoryPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(res.Iterations+1) * int64(st.NumPages)
	if got := res.PagesRead - res.ReusedPages; got > bound {
		t.Fatalf("instance read %d pages, exceeding the Eq. 7 bound %d", got, bound)
	}
}
