package core

import (
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// ablationStore is the root ablation benchmarks' workload: a degree-ordered
// 4096-vertex R-MAT graph of 60 000 edges on 4096-byte pages.
func ablationStore(b *testing.B) *storage.Store {
	b.Helper()
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<12, 60_000, 9))
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	return buildStore(b, g, 4096)
}

// BenchmarkAblationAreaSplit sweeps the internal/external split around the
// paper's even m/2, beside the split the planner picks for this store
// (in = 0: no override). DESIGN.md §5.
func BenchmarkAblationAreaSplit(b *testing.B) {
	st := ablationStore(b)
	m := int(st.NumPages) * 15 / 100
	for _, frac := range []struct {
		name string
		in   int
	}{
		{"in25", m / 4}, {"in50", m / 2}, {"in75", 3 * m / 4}, {"planned", 0},
	} {
		b.Run(frac.name, func(b *testing.B) {
			o := serial
			if frac.in > 0 {
				o.seams.internalPages, o.seams.externalPages = frac.in, m-frac.in
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := runFile(st, o, engine.Options{MemoryPages: m})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Iterations), "iterations")
				}
			}
		})
	}
}

// BenchmarkAblationMicroOverlap toggles asynchronous external reads under
// simulated latency. DESIGN.md §5.
func BenchmarkAblationMicroOverlap(b *testing.B) {
	st := ablationStore(b)
	opts := engine.Options{
		MemoryPages: int(st.NumPages) * 15 / 100,
		Latency:     ssd.Latency{PerRead: 20 * time.Microsecond, PerPage: 5 * time.Microsecond},
	}
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"async", false}, {"sync", true}} {
		b.Run(tc.name, func(b *testing.B) {
			o := optRunner{mode: Serial, seams: seams{disableMicroOverlap: tc.disable}}
			for i := 0; i < b.N; i++ {
				if _, _, err := runFile(st, o, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
