package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/storage"
)

// TestTalliesExact pins what counting per task must not change: on the
// dense-cpu benchmark graph (seed 1, ≈ 860 pages) every mode and thread
// count, counting or listing, reports the same Triangles, IntersectOps
// (Eq. 3 on the uncut lists) and Intersections — the values the per-pair
// atomics of the parent commit produced — and the TrianglesFound events sum
// to the result.
func TestTalliesExact(t *testing.T) {
	const triangles, ops, calls = 498_402, 13_128_492, 402_943
	st := denseStore(t, 1)
	if st.NumPages < 200 {
		t.Fatalf("store has %d pages, the test needs ≥ 200", st.NumPages)
	}
	runs := []struct {
		name    string
		o       optRunner
		threads int
		listing bool
	}{
		{"serial", serial, 0, false},
		{"threads=1", parallel, 1, false},
		{"threads=2", parallel, 2, false},
		{"threads=4", parallel, 4, false},
		{"listing", parallel, 2, true},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			opts := engine.Options{Threads: run.threads, MemoryPages: int(float64(st.NumPages) * 0.15)}
			var listed, found atomic.Int64
			if run.listing {
				opts.OnTriangles = func(_, _ uint32, ws []uint32) { listed.Add(int64(len(ws))) }
			}
			opts.Events = events.Func(func(e events.Event) {
				if e.Kind == events.TrianglesFound {
					found.Add(e.N)
				}
			})
			res, mx, err := runFile(st, run.o, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Triangles != triangles || mx.Triangles() != triangles {
				t.Errorf("Triangles = %d (collector %d), want %d", res.Triangles, mx.Triangles(), triangles)
			}
			if got := mx.IntersectOps(); got != ops {
				t.Errorf("IntersectOps = %d, want %d", got, ops)
			}
			if got := mx.Intersections(); got != calls {
				t.Errorf("Intersections = %d, want %d", got, calls)
			}
			if got := found.Load(); got != res.Triangles {
				t.Errorf("TrianglesFound events sum to %d, result has %d", got, res.Triangles)
			}
			if run.listing && listed.Load() != triangles {
				t.Errorf("the sink received %d triangles, want %d", listed.Load(), triangles)
			}
		})
	}
}

// TestCancelKeepsTallies cancels a listing run from inside its own sink,
// mid-iteration: the partial Triangles must be exactly what the sink
// received — every task that ran flushed its tally once, none was lost with
// a task that never started.
func TestCancelKeepsTallies(t *testing.T) {
	_, st := sparseStore(t)
	for _, run := range []struct {
		o       optRunner
		threads int
	}{{serial, 0}, {parallel, 2}, {parallel, 4}} {
		ctx, cancel := context.WithCancel(context.Background())
		var listed atomic.Int64
		res, mx, err := runWith(ctx, st, nil, run.o, engine.Options{
			Threads: run.threads, MemoryPages: int(st.NumPages) / 4,
			OnTriangles: func(_, _ uint32, ws []uint32) {
				if listed.Add(int64(len(ws))) > 500 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v/%d: err = %v, want context.Canceled", run.o.mode, run.threads, err)
		}
		if res == nil || res.Triangles != listed.Load() || mx.Triangles() != listed.Load() {
			t.Fatalf("%v/%d: partial result %+v (collector %d), the sink received %d",
				run.o.mode, run.threads, res, mx.Triangles(), listed.Load())
		}
		if res.Triangles <= 500 {
			t.Fatalf("%v/%d: run stopped at %d triangles, before the sink cancelled it", run.o.mode, run.threads, res.Triangles)
		}
	}
}

// TestPartnerRange drives Algorithm 10 on hand-made records against an
// internal area of ids [10, 20). The Ctx's store has no vertices, so filling
// a membership set would panic: two partners or fewer must merge.
func TestPartnerRange(t *testing.T) {
	ctx := &Ctx{store: &storage.Store{}, loVertex: 10, hiVertex: 20, span: make([][2]uint32, 10)}
	ctx.addInternal(storage.VertexRec{ID: 12, Adj: []uint32{15, 30, 60, 70}})
	ctx.addInternal(storage.VertexRec{ID: 15, Adj: []uint32{16, 60, 80}})
	var listed [][3]uint32
	ctx.out = FuncOutput(func(u, v uint32, ws []uint32) {
		for _, w := range ws {
			listed = append(listed, [3]uint32{u, v, w})
		}
	})
	model := edgeIteratorModel{}

	// n≺(50) = {1, 2, 3, 25, 26} misses the area on both sides: the two
	// bounds find an empty run and nothing is intersected.
	w := &work{}
	model.ExternalTriangle(ctx, w, storage.VertexRec{ID: 50, Adj: []uint32{1, 2, 3, 25, 26, 60, 70}})
	if w.calls != 0 || w.ops != 0 || w.triangles != 0 || len(listed) != 0 {
		t.Fatalf("record without internal partners: tally %+v, listed %v", *w, listed)
	}

	// n≺(50) = {5, 12, 15, 25}: the partners are exactly {12, 15}, and their
	// lists are cut to the ids above 50 — 30 ∈ n≻(12) closes no triangle.
	model.ExternalTriangle(ctx, w, storage.VertexRec{ID: 50, Adj: []uint32{5, 12, 15, 25, 30, 60, 80}})
	// Eq. 3 prices each pair on the uncut lists: min(|n≻(u)|, |n≻(50)| = 2).
	if w.calls != 2 || w.ops != 2+2 || w.triangles != 3 {
		t.Fatalf("record with two internal partners: tally %+v, want 2 calls, 4 ops, 3 triangles", *w)
	}
	want := [][3]uint32{{12, 50, 60}, {15, 50, 60}, {15, 50, 80}}
	if len(listed) != len(want) {
		t.Fatalf("listed %v, want %v", listed, want)
	}
	for i := range want {
		if listed[i] != want[i] {
			t.Fatalf("listed %v, want %v", listed, want)
		}
	}
}
