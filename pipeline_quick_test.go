package opt

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// TestPipelinePropertyRandomGraphs is the end-to-end property test: for
// random graphs and random framework configurations, every disk-based
// algorithm must report exactly the in-memory reference count.
func TestPipelinePropertyRandomGraphs(t *testing.T) {
	dir := t.TempDir()
	counter := 0
	property := func(seed int64, nRaw uint8, density uint8, budgetRaw uint8, algRaw uint8) bool {
		counter++
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(nRaw)%120
		m := int64(1 + int(density)%8*n/2)
		var edges []Edge
		for i := int64(0); i < m; i++ {
			edges = append(edges, Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Log(err)
			return false
		}
		g = g.DegreeOrdered()
		want := g.CountTriangles()

		st, err := BuildStore(filepath.Join(dir, "q.optstore"), g, 64)
		if err != nil {
			t.Log(err)
			return false
		}
		algs := []Algorithm{OPT, OPTSerial, MGT, CCSeq, CCDS, GraphChiTri}
		alg := algs[int(algRaw)%len(algs)]
		res, err := Triangulate(st, Options{
			Algorithm:   alg,
			MemoryPages: 2 + int(budgetRaw)%6,
			Threads:     1 + int(seed)%3&3,
			TempDir:     dir,
		})
		if err != nil {
			t.Logf("alg %v: %v", alg, err)
			return false
		}
		if res.Triangles != want {
			t.Logf("alg %v: got %d, want %d (n=%d m=%d)", alg, res.Triangles, want, n, m)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if counter == 0 {
		t.Fatal("property never executed")
	}
}

// TestListingMatchesCountProperty: the triangles delivered through
// OnTriangles must be exactly the counted set, each reported once with
// ordered corners.
func TestListingMatchesCountProperty(t *testing.T) {
	dir := t.TempDir()
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		var edges []Edge
		for i := 0; i < n*4; i++ {
			edges = append(edges, Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			return false
		}
		g = g.DegreeOrdered()
		st, err := BuildStore(filepath.Join(dir, "l.optstore"), g, 64)
		if err != nil {
			return false
		}
		seen := map[[3]uint32]bool{}
		bad := false
		// OnTriangles must be safe for concurrent calls: even OPT_serial
		// emits from the callback thread and, for buffer-resident chunks,
		// from the caller's.
		var mu sync.Mutex
		res, err := Triangulate(st, Options{
			Algorithm: OPTSerial, MemoryPages: 4,
			OnTriangles: func(u, v uint32, ws []uint32) {
				mu.Lock()
				defer mu.Unlock()
				for _, w := range ws {
					if !(u < v && v < w) {
						bad = true
					}
					key := [3]uint32{u, v, w}
					if seen[key] {
						bad = true
					}
					seen[key] = true
					if !g.HasEdge(u, v) || !g.HasEdge(v, w) || !g.HasEdge(u, w) {
						bad = true
					}
				}
			},
		})
		if err != nil || bad {
			return false
		}
		return int64(len(seen)) == res.Triangles && res.Triangles == g.CountTriangles()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
