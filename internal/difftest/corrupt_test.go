package difftest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// swappedStore builds g's store under codec with the first two ids of n≻(v)
// swapped: every id in range, the degree right, the list unsorted — under
// deltavarint, a delta that wraps around 2³². No builder writes such a list;
// the test writes it through Neighbors, which aliases the graph's storage,
// and swaps the two back before it returns.
func swappedStore(t *testing.T, g *graph.Graph, v uint32, codec string) *storage.Store {
	t.Helper()
	adj := g.Neighbors(v)
	i := intersect.UpperBound(adj, v)
	if len(adj)-i < 2 {
		t.Fatalf("n≻(%d) has %d ids, the test swaps two", v, len(adj)-i)
	}
	adj[i], adj[i+1] = adj[i+1], adj[i]
	defer func() { adj[i], adj[i+1] = adj[i+1], adj[i] }()
	st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "swapped.optstore"), g, 256, codec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCorruptListFailsEveryRunner is the decode contract across the
// registry: a store whose list of vertex 717 holds two neighbours swapped —
// a swap that makes unchecked kernels miss a triangle rather than crash —
// and a store whose successor directory moves two entries by +1 and −1,
// still summing to |E|, and an intact store behind a device that answers
// one read with a clean span from page 0 (testutil.WrongPagesDevice) must
// end every registered runner, on either codec, with storage.ErrCorruptPage
// and a partial Result, and leak no goroutine. Store.DecodeAt is the one
// check every reader's pages go through.
func TestCorruptListFailsEveryRunner(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 8000, 17))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for _, codec := range codecs {
		st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "g.optstore"), g, 256, codec)
		if err != nil {
			t.Fatal(err)
		}
		shifted, _, _ := testutil.ShiftedSuccStore(t, st)
		for _, c := range []struct {
			prefix string
			st     *storage.Store
		}{{codec, swappedStore(t, g, 717, codec)}, {codec + "/shifted-successors", shifted}} {
			checkCorruptFailsEveryRunner(t, g, c.prefix, c.st, nil)
		}
		checkCorruptFailsEveryRunner(t, g, codec+"/wrong-pages", st, func(dev ssd.PageDevice) ssd.PageDevice {
			return testutil.NewWrongPagesDevice(dev, st)
		})
	}
}

// checkCorruptFailsEveryRunner runs every registered runner over st's
// device, handed to wrap first when wrap is non-nil.
func checkCorruptFailsEveryRunner(t *testing.T, g *graph.Graph, prefix string, st *storage.Store, wrap func(ssd.PageDevice) ssd.PageDevice) {
	for _, name := range engine.Names() {
		t.Run(fmt.Sprintf("%s/%s", prefix, name), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var dev ssd.PageDevice
			dev, err := st.Device()
			if err != nil {
				t.Fatal(err)
			}
			if wrap != nil {
				dev = wrap(dev)
			}
			res, err := engine.Run(context.Background(), name, st, dev, engine.Options{
				MemoryPages: int(st.NumPages) / 8,
				TempDir:     t.TempDir(),
			})
			if cerr := dev.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if !errors.Is(err, storage.ErrCorruptPage) {
				var got int64
				if res != nil {
					got = res.Triangles
				}
				t.Fatalf("err = %v (%d triangles, %d in the intact graph), want storage.ErrCorruptPage",
					err, got, graph.CountTrianglesReference(g))
			}
			if res == nil {
				t.Fatal("no partial result alongside the error")
			}
			testutil.WaitGoroutines(t, baseline, name+" after a corrupt list")
		})
	}
}
