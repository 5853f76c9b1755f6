package gen

import (
	"math"
	"math/rand"
	"testing"

	"github.com/optlab/opt/internal/graph"
)

func TestRMATBasic(t *testing.T) {
	g, err := RMAT(DefaultRMAT(1<<12, 40_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1<<12 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() < 20_000 || g.NumEdges() > 40_000 {
		t.Fatalf("NumEdges = %d, want in (20000, 40000]", g.NumEdges())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, err := RMAT(DefaultRMAT(1024, 5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(DefaultRMAT(1024, 5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	if graph.CountTrianglesReference(a) != graph.CountTrianglesReference(b) {
		t.Fatal("same seed produced different triangle counts")
	}
	c, err := RMAT(DefaultRMAT(1024, 5000, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() == c.NumEdges() && graph.CountTrianglesReference(a) == graph.CountTrianglesReference(c) {
		t.Log("warning: different seeds produced identical stats (possible but unlikely)")
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// R-MAT with default parameters is heavily skewed: the max degree should
	// far exceed the average.
	g, err := RMAT(DefaultRMAT(1<<12, 60_000, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := graph.BasicStats(g)
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Fatalf("max degree %d not skewed vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestRMATNonPowerOfTwo(t *testing.T) {
	g, err := RMAT(DefaultRMAT(1000, 4000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("NumVertices = %d, want 1000", g.NumVertices())
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(RMATParams{NumVertices: 0, NumEdges: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25}); err == nil {
		t.Error("zero vertices: want error")
	}
	if _, err := RMAT(RMATParams{NumVertices: 10, NumEdges: -1, A: 0.25, B: 0.25, C: 0.25, D: 0.25}); err == nil {
		t.Error("negative edges: want error")
	}
	if _, err := RMAT(RMATParams{NumVertices: 10, NumEdges: 1, A: 0.9, B: 0.2, C: 0.2, D: 0.2}); err == nil {
		t.Error("probabilities > 1: want error")
	}
	if _, err := RMAT(RMATParams{NumVertices: 10, NumEdges: 1, A: 1, B: 0, C: 0, D: 0}); err == nil {
		t.Error("zero quadrant: want error")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(2000, 10_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// Simplification removes few edges at this density.
	if g.NumEdges() < 9_500 {
		t.Fatalf("NumEdges = %d, want close to 10000", g.NumEdges())
	}
	if _, err := ErdosRenyi(0, 5, 1); err == nil {
		t.Error("n=0: want error")
	}
}

func TestHolmeKimClusteringControl(t *testing.T) {
	// Clustering coefficient should increase markedly with TriadProb.
	low, err := HolmeKim(HolmeKimParams{NumVertices: 3000, M: 5, TriadProb: 0.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := HolmeKim(HolmeKimParams{NumVertices: 3000, M: 5, TriadProb: 0.9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ccLow := graph.AverageClusteringCoefficient(low)
	ccHigh := graph.AverageClusteringCoefficient(high)
	if ccHigh < ccLow+0.05 {
		t.Fatalf("clustering not controlled: p=0 gives %.3f, p=0.9 gives %.3f", ccLow, ccHigh)
	}
	// Density stays roughly constant (≈ M per vertex).
	dLow := float64(low.NumEdges()) / float64(low.NumVertices())
	dHigh := float64(high.NumEdges()) / float64(high.NumVertices())
	if math.Abs(dLow-dHigh) > 1.0 {
		t.Fatalf("density drifted with TriadProb: %.2f vs %.2f", dLow, dHigh)
	}
}

func TestHolmeKimValidation(t *testing.T) {
	if _, err := HolmeKim(HolmeKimParams{NumVertices: 0, M: 2}); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := HolmeKim(HolmeKimParams{NumVertices: 10, M: 0}); err == nil {
		t.Error("M=0: want error")
	}
	if _, err := HolmeKim(HolmeKimParams{NumVertices: 10, M: 2, TriadProb: 1.5}); err == nil {
		t.Error("TriadProb=1.5: want error")
	}
}

func TestHolmeKimMLargerThanN(t *testing.T) {
	g, err := HolmeKim(HolmeKimParams{NumVertices: 4, M: 10, TriadProb: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Clamped to K4.
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6 (K4)", g.NumEdges())
	}
}

func TestDatasetSpecs(t *testing.T) {
	if len(Datasets) != 5 {
		t.Fatalf("Datasets = %d entries, want 5", len(Datasets))
	}
	// Table 2 densities.
	wantDensity := map[string]float64{
		"lj": 14.2, "orkut": 72.7, "twitter": 35.3, "uk": 35.3, "yahoo": 4.7,
	}
	for _, d := range Datasets {
		if math.Abs(d.Density-wantDensity[d.Name]) > 0.5 {
			t.Errorf("%s density = %.1f, want ≈%.1f", d.Name, d.Density, wantDensity[d.Name])
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset: want error")
	}
	d, err := DatasetByName("lj")
	if err != nil || d.Name != "lj" {
		t.Fatalf("DatasetByName(lj) = %+v, %v", d, err)
	}
}

func TestProxyPreservesDensityAndOrdering(t *testing.T) {
	d, _ := DatasetByName("lj")
	g, err := d.Proxy(20_000)
	if err != nil {
		t.Fatal(err)
	}
	density := float64(g.NumEdges()) / float64(g.NumVertices())
	// Simplification loses some sampled edges; allow 40% slack below.
	if density < d.Density*0.6 || density > d.Density*1.05 {
		t.Fatalf("proxy density = %.1f, original %.1f", density, d.Density)
	}
	if !graph.IsDegreeOrdered(g) {
		t.Fatal("proxy not degree ordered")
	}
	if _, err := d.Proxy(0); err == nil {
		t.Error("Proxy(0): want error")
	}
}

// BenchmarkRMAT times the benchmark's dense-cpu generation phase: the
// twitter-density R-MAT proxy at 12 000 vertices, sampled and then
// degree-ordered.
func BenchmarkRMAT(b *testing.B) {
	d, err := DatasetByName("twitter")
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultRMAT(12000, int64(12000*d.Density), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := RMAT(p)
		if err != nil {
			b.Fatal(err)
		}
		graph.DegreeOrder(g)
	}
}

// TestFloatStreamMatchesMathRand: R-MAT's own continuation of math/rand's
// generator must hand out the library's Float64 stream value for value.
func TestFloatStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 103, -5, 1 << 40} {
		ref := rand.New(rand.NewSource(seed))
		s := newFloatStream(seed)
		for i := 0; i < 1_200_000; i++ {
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d, draw %d: %v, want %v", seed, i, got, want)
			}
		}
	}
}
